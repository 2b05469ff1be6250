// scf_frames: the paper's measured operation ("an output operation
// followed by an input operation" on a distributed SCF collection), run at
// host speed as a frame series on the memory backend.
//
// 4 nodes, BLOCK Collection<Segment> with seeded variable particle counts
// (mean 100, about 5.6 KB per segment, about 100 MB per record). Codec
// "none", checksums off, aio depth 0: ds pack/extract and the pfs ordered
// transfer do the work, and codec, CRC, aio, redist and posix are bypassed.
// One repetition writes R records, then reads them back with
// unsortedRead() + >> and verifies every value; R makes the file at least
// four times the last-level cache. The file is removed between
// repetitions so memory does not grow. Each of the set-ups is followed by
// its share of the repetitions.
#include <algorithm>
#include <optional>

#include "collection/collection.h"
#include "common.h"
#include "dstream/dstream.h"
#include "scf/segment.h"
#include "trace.h"
#include "util/strfmt.h"

namespace perfbench {
namespace {

using pcxx::scf::Segment;
namespace coll = pcxx::coll;
namespace ds = pcxx::ds;
namespace pfs = pcxx::pfs;
namespace rt = pcxx::rt;

constexpr int kNodes = 4;
constexpr std::int64_t kSegments = 17856;  // ~100 MB at mean 100 particles
const char* const kFile = "frames";

/// Put record `record`'s stamp into every local segment.
void stamp(coll::Collection<Segment>& c, std::uint64_t seed, int record) {
  c.forEachLocal(
      [&](Segment& s, std::int64_t g) { s.x[0] = stampOf(seed, g, record); });
}

}  // namespace

void runScfFrames(const Pass& pass, Result& res) {
  const Args& args = *pass.args;
  const std::uint64_t llc = environment().llcBytes;
  res.nodes = kNodes;
  res.elements = kSegments;
  res.writerKind = res.readerKind = coll::DistKind::Block;

  for (int rep = 0; rep < pass.setupReps; ++rep) {
    const Pass round = roundOf(pass, rep);
    const double t0 = now();
    const double c0 = processCpu();
    rt::Machine m(kNodes);
    pfs::PfsConfig cfg;  // memory backend, host clock, no codec
    pfs::Pfs fs(cfg);
    Instruments inst(pass, m, fs);
    m.run([&](rt::Node& node) {
      enterNode(node);
      coll::Processors P;
      coll::Distribution d(kSegments, &P, coll::DistKind::Block);
      coll::Collection<Segment> front(&d);
      {
        trace::Scope span("coll.fill", "coll");
        front.forEachLocal(
            [&](Segment& s, std::int64_t g) { fillSegment(s, args.seed, g); });
      }
      node.barrier();
      if (node.id() == 0) {
        res.setup.add(now() - t0);
        res.setupCpu.add(processCpu() - c0);
        if (pass.traced) res.setups += 1;
      }

      std::uint64_t mine = 0;
      front.forEachLocal(
          [&](Segment& s, std::int64_t) { mine += s.payloadBytes(); });
      const std::uint64_t payload = node.allreduceSumU64(mine);
      const int records = static_cast<int>(std::max<std::uint64_t>(
          2, (4 * llc + payload - 1) / payload));
      if (node.id() == 0 && rep == 0) {
        res.recordPayloadBytes = static_cast<double>(payload);
        res.notes.push_back(pcxx::strfmt(
            "record payload %.1f MB, %d records per repetition, file %.1f MB "
            "(LLC %.1f MiB)",
            static_cast<double>(payload) / 1e6, records,
            static_cast<double>(payload) * records / 1e6,
            static_cast<double>(llc) / (1 << 20)));
      }
      Result* skew = pass.traced ? &res : nullptr;
      coll::Collection<Segment> back(&d);
      ds::StreamOptions wopts;
      wopts.codec = "none";
      wopts.checksumData = false;
      wopts.aioQueueDepth = 0;
      std::uint64_t op = 0;
      const double deadline = now() + round.seconds;
      bool more = true;
      while (more) {
        if (node.id() == 0) resetPeakRss();
        double writeSeconds = 0.0;
        {
          ds::OStream out(fs, &d, kFile, wopts);
          for (int r = 0; r < records; ++r) {
            stamp(front, args.seed, r);
            trace::setOp(++op);
            const double lat = timedOp(
                node,
                [&] {
                  {
                    trace::Scope span("ds.insert", "ds");
                    out << front;
                  }
                  trace::Scope span("ds.write_call", "ds");
                  out.write();
                },
                &res.writeCpu, skew);
            if (node.id() == 0) {
              res.writeLat.add(lat);
              res.attempted += 1;
              if (pass.traced) res.writeOps += 1;
              writeSeconds += lat;
            }
          }
          writeSeconds += timedOp(node, [&] {
            trace::Scope span("ds.close", "ds");
            out.close();
          });
        }
        double readSeconds = 0.0;
        {
          std::optional<ds::IStream> in;
          readSeconds += timedOp(node, [&] {
            trace::Scope span("ds.open", "ds");
            in.emplace(fs, &d, kFile);
          });
          for (int r = 0; r < records; ++r) {
            trace::setOp(++op);
            const double lat = timedOp(
                node,
                [&] {
                  {
                    trace::Scope span("ds.read_call", "ds");
                    in->unsortedRead();
                  }
                  trace::Scope span("ds.extract", "ds");
                  *in >> back;
                },
                &res.readCpu, skew);
            stamp(front, args.seed, r);
            const std::uint64_t bad =
                node.allreduceSumU64(mismatches(back, front));
            if (node.id() == 0) {
              res.readLat.add(lat);
              res.attempted += 1;
              if (bad != 0) res.failed += 1;
              if (pass.traced) res.readOps += 1;
              readSeconds += lat;
            }
          }
          in->close();
        }
        if (node.id() == 0) {
          const double bytes = static_cast<double>(payload) * records;
          res.writeMBps.push_back(bytes / 1e6 / writeSeconds);
          res.readMBps.push_back(bytes / 1e6 / readSeconds);
          res.storedPerPayload.push_back(
              static_cast<double>(fs.storedFileSize(kFile)) / bytes);
          res.peakRssMB.push_back(peakRssMB());
        }
        more = another(node, round, deadline, res.writeLat);
        if (!more && pass.traced) endTracedPhase(node, fs, kFile, inst, res);
        fs.remove(node, kFile);
      }
    });
    inst.finish(res);
  }
}

}  // namespace perfbench
