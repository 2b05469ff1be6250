// checkpoint_restart: the durability path a simulation pays at every
// checkpoint.
//
// 2 nodes (plus their 2 aio flusher threads) save SCF particle data
// (scf::fillPlummer) through CheckpointManager on the posix backend, with
// its defaults (checksumData, syncOnWrite) plus aioQueueDepth=2, codec "lz"
// and dedupAcrossEpochs. Before each save a seeded contiguous active region
// of about 10% of the segments moves. Every second epoch, restoreLatest
// reads the newest epoch into a CYCLIC collection with prefetch on — the
// redistribution path — and the result is compared element-exact with a
// CYCLIC shadow that received the same updates.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "collection/collection.h"
#include "common.h"
#include "dstream/checkpoint.h"
#include "scf/segment.h"
#include "scf/workload.h"
#include "trace.h"
#include "util/strfmt.h"

namespace perfbench {
namespace {

using pcxx::scf::Segment;
namespace coll = pcxx::coll;
namespace ds = pcxx::ds;
namespace pfs = pcxx::pfs;
namespace rt = pcxx::rt;

constexpr int kNodes = 2;
// 22.0 MB per epoch: the epoch size at which the lz+dedup save cost was
// first measured against codec "none" (about 240 vs 65 ms), so the split
// of save() between codec, checksum and fsync (saveSplit) is known here.
constexpr std::int64_t kSegments = 3926;
constexpr int kParticles = 100;
constexpr int kRestoreEvery = 2;
// Sample floor of an untraced run: 40 restores (80 saves, about 30 s at
// this epoch size) put the read tail at p75. The common floor of 100
// would take about 70 s here.
constexpr std::size_t kMinRestores = 40;
constexpr std::uint32_t kChunkBytes = 64 * 1024;  // the pfs codec default

/// Drift the particles of the epoch's active region (a contiguous 10% of
/// the segments, wrapping, at a seeded start).
void advance(coll::Collection<Segment>& c, std::uint64_t seed, int epoch) {
  const std::int64_t len = kSegments / 10;
  const auto start = static_cast<std::int64_t>(
      mix(seed ^ 0xAC7, static_cast<std::uint64_t>(epoch)) %
      static_cast<std::uint64_t>(kSegments));
  c.forEachLocal([&](Segment& s, std::int64_t g) {
    if ((g - start + kSegments) % kSegments >= len) return;
    for (int k = 0; k < s.numberOfParticles; ++k) {
      s.x[k] += 1e-3 * s.vx[k];
      s.y[k] += 1e-3 * s.vy[k];
      s.z[k] += 1e-3 * s.vz[k];
    }
  });
}

/// save() drains its write-behind queue inside close(), out of the
/// benchmark's reach. Measure that close() apart: write the next epochs'
/// state with the same stream options save() uses (deduplicated against
/// the latest epoch) and time the close() alone. Median of five, node 0.
double drainProbe(rt::Node& node, pfs::Pfs& fs,
                  coll::Collection<Segment>& state,
                  const coll::Distribution& block, std::uint64_t seed,
                  int epoch, const std::string& dedupBase) {
  ds::StreamOptions so;
  so.checksumData = true;
  so.syncOnWrite = true;
  so.aioQueueDepth = 2;
  so.codec = "lz";
  so.codecDedupBase = dedupBase;
  std::vector<double> closes;
  for (int i = 0; i < 5; ++i) {
    advance(state, seed, epoch + i);
    ds::OStream s(fs, &block, "drain-probe", so);
    s << state;
    s.write();
    closes.push_back(timedOp(node, [&] { s.close(); }));
    fs.remove(node, "drain-probe");
  }
  return medianOf(closes);
}

/// Where save() time goes, measured from outside the manager: four
/// managers save the same state in turn, one with the workload's options
/// and three with one stage switched off (codec and dedup, data checksums,
/// fsync). The order rotates every round so host drift hits all four
/// alike; the first round is dropped because it has no dedup base yet.
/// Median wall seconds per save, node 0.
Result::SaveSplit saveSplit(rt::Node& node, pfs::Pfs& fs,
                            coll::Collection<Segment>& state,
                            const ds::CheckpointOptions& base,
                            std::uint64_t seed, int epoch) {
  constexpr int kVariants = 4;
  constexpr int kRounds = 8;
  std::vector<ds::CheckpointOptions> opts(kVariants, base);
  opts[1].codec = "none";
  opts[1].dedupAcrossEpochs = false;
  opts[2].checksumData = false;
  opts[3].syncOnWrite = false;
  std::vector<std::unique_ptr<ds::CheckpointManager>> mgrs;
  for (int v = 0; v < kVariants; ++v) {
    opts[v].baseName = "split" + std::to_string(v);
    mgrs.push_back(std::make_unique<ds::CheckpointManager>(fs, opts[v]));
  }
  std::vector<double> secs[kVariants];
  for (int round = 0; round < kRounds; ++round) {
    advance(state, seed, epoch + round);
    for (int i = 0; i < kVariants; ++i) {
      const int v = (round + i) % kVariants;
      const double s = timedOp(node, [&] { mgrs[v]->save(state); });
      if (round > 0) secs[v].push_back(s);
    }
  }
  return {medianOf(secs[0]), medianOf(secs[1]), medianOf(secs[2]),
          medianOf(secs[3])};
}

struct Storage {
  std::uint64_t allocated = 0;  ///< st_blocks * 512, all files
  std::uint64_t logical = 0;    ///< st_size, all files
  int epochs = 0;               ///< epoch files retained
};

Storage storageOf(const std::string& dir, const std::string& marker) {
  Storage st;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    st.allocated += allocatedBytes(e.path().string());
    st.logical += static_cast<std::uint64_t>(e.file_size());
    if (e.path().filename().string() != marker) ++st.epochs;
  }
  return st;
}

}  // namespace

void runCheckpointRestart(const Pass& passIn, Result& res) {
  Pass pass = passIn;
  pass.minSamples = std::min(pass.minSamples, kMinRestores);
  const Args& args = *pass.args;
  res.nodes = kNodes;
  res.elements = kSegments;
  res.writerKind = coll::DistKind::Block;
  res.readerKind = coll::DistKind::Cyclic;
  res.codecChunkBytes = kChunkBytes;

  // Active regions continue across rounds instead of repeating, so a run
  // samples as many region positions as it saves epochs.
  int regionBase = 0;
  double peakRss = 0.0;
  for (int rep = 0; rep < pass.setupReps; ++rep) {
    const Pass round = roundOf(pass, rep);
    const bool last = rep + 1 == pass.setupReps;
    const double t0 = now();
    const double c0 = processCpu();
    TempDir dir(args.workdir, "ckpt");
    rt::Machine m(kNodes);
    pfs::PfsConfig cfg;
    cfg.backend = pfs::PfsConfig::Backend::Posix;
    cfg.dir = dir.path();
    pfs::Pfs fs(cfg);
    Instruments inst(pass, m, fs);
    m.run([&](rt::Node& node) {
      enterNode(node);
      coll::Processors P;
      coll::Distribution block(kSegments, &P, coll::DistKind::Block);
      coll::Distribution cyclic(kSegments, &P, coll::DistKind::Cyclic);
      coll::Collection<Segment> state(&block);
      coll::Collection<Segment> shadow(&cyclic);
      {
        trace::Scope span("coll.fill", "coll");
        pcxx::scf::fillPlummer(state, kParticles, args.seed);
        pcxx::scf::fillPlummer(shadow, kParticles, args.seed);
      }
      node.barrier();
      if (node.id() == 0) {
        res.setup.add(now() - t0);
        res.setupCpu.add(processCpu() - c0);
        if (pass.traced) res.setups += 1;
      }

      std::uint64_t mine = 0;
      state.forEachLocal(
          [&](Segment& s, std::int64_t) { mine += s.payloadBytes(); });
      const std::uint64_t payload = node.allreduceSumU64(mine);
      if (node.id() == 0 && rep == 0) {
        res.recordPayloadBytes = static_cast<double>(payload);
        res.notes.push_back(pcxx::strfmt(
            "epoch payload %.2f MB on %s (%s), restore every %d epochs",
            static_cast<double>(payload) / 1e6, dir.path().c_str(),
            filesystemType(dir.path()).c_str(), kRestoreEvery));
      }
      ds::CheckpointOptions co;
      co.baseName = "ckpt";
      co.aioQueueDepth = 2;
      co.aioPrefetchDepth = 2;
      co.codec = "lz";
      co.dedupAcrossEpochs = true;
      ds::CheckpointManager mgr(fs, co);
      coll::Collection<Segment> restored(&cyclic);
      Result* skew = pass.traced ? &res : nullptr;
      std::uint64_t op = 0;
      std::uint64_t lastSaved = 0;
      if (node.id() == 0) resetPeakRss();
      const double deadline = now() + round.seconds;
      // Read by every node before the collective that ends the loop;
      // node 0 moves it on only after that collective.
      const int base = regionBase;
      double prevHeld = 0.0;
      int epoch = 0;
      for (;; ++epoch) {
        advance(state, args.seed, base + epoch);
        advance(shadow, args.seed, base + epoch);
        trace::setOp(++op);
        const double wlat = timedOp(
            node,
            [&] {
              trace::Scope span("ckpt.save", "ckpt");
              lastSaved = mgr.save(state);
            },
            &res.writeCpu, skew);
        if (node.id() == 0) {
          res.writeLat.add(wlat);
          res.writeMBps.push_back(static_cast<double>(payload) / 1e6 / wlat);
          res.attempted += 1;
          if (pass.traced) res.writeOps += 1;
        }
        if ((epoch + 1) % kRestoreEvery == 0) {
          std::int64_t got = -1;
          trace::setOp(++op);
          const double rlat = timedOp(
              node,
              [&] {
                trace::Scope span("ckpt.restore", "ckpt");
                got = mgr.restoreLatest(restored);
              },
              &res.readCpu, skew);
          const std::uint64_t bad = node.allreduceSumU64(
              mismatches(restored, shadow) +
              (got == static_cast<std::int64_t>(lastSaved) ? 0 : 1));
          if (node.id() == 0) {
            res.readLat.add(rlat);
            res.readMBps.push_back(static_cast<double>(payload) / 1e6 / rlat);
            res.attempted += 1;
            if (bad != 0) res.failed += 1;
            if (pass.traced) res.readOps += 1;
          }
        }
        // Space held once the retained set is full (epoch files + marker).
        // It alternates from save to save: a dedup reference may only
        // point at a data frame, so an unchanged chunk is stored as data
        // every second epoch. Each value is the mean of two saves.
        if (node.id() == 0 && epoch >= 3) {
          const Storage st = storageOf(dir.path(), mgr.markerFileName());
          const double held = static_cast<double>(st.allocated) /
                              (static_cast<double>(payload) * st.epochs);
          if (epoch >= 4) {
            res.storedPerPayload.push_back(0.5 * (held + prevHeld));
          }
          prevHeld = held;
        }
        if (!another(node, round, deadline, res.readLat) && epoch >= 4) break;
      }
      if (node.id() == 0) {
        regionBase = base + epoch + 1;
        peakRss = std::max(peakRss, peakRssMB());
      }
      if (node.id() == 0 && last) {
        // One value, the peak of all rounds: a round's peak lands on one of
        // two levels about 10 MB apart, depending on how the node threads'
        // and aio threads' buffers overlap in time.
        res.peakRssMB.push_back(peakRss);
        const Storage st = storageOf(dir.path(), mgr.markerFileName());
        res.notes.push_back(pcxx::strfmt(
            "%d epochs saved in the last round; %d retained: %.2f MB "
            "allocated, %.2f MB st_size, %.2f MB live payload",
            epoch + 1, st.epochs, static_cast<double>(st.allocated) / 1e6,
            static_cast<double>(st.logical) / 1e6,
            static_cast<double>(payload) * st.epochs / 1e6));
      }
      if (pass.traced) {
        endTracedPhase(node, fs, mgr.epochFileName(lastSaved), inst, res);
        res.aioDrainSeconds = drainProbe(node, fs, state, block, args.seed,
                                         base + epoch + 1,
                                         mgr.epochFileName(lastSaved));
        const Result::SaveSplit split =
            saveSplit(node, fs, state, co, args.seed, base + epoch + 6);
        if (node.id() == 0) res.saveSplit = split;
      }
    });
    inst.finish(res);
  }
}

}  // namespace perfbench
