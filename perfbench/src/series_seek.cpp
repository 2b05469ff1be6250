// series_seek: analysis and visualization access to a finished series.
//
// Set-up writes an indexed frame series on the posix backend with 4 nodes
// BLOCK; each record puts two fixed-size per-segment fields (particle
// count, centre-of-mass summary) ahead of the variable-size segment
// insert. The measured phase has no write path: 4 nodes under CYCLIC issue
// seeded random readRecord(k) sorted reads (seekRecord, then read), and a
// seeded quarter of them are project({count, summary}) reads. dsindex
// seek, redist plan execution, rt collectives and posix pread do the work.
// The write metrics of this workload time the set-up's series write.
#include <optional>

#include "collection/collection.h"
#include "common.h"
#include "dstream/dstream.h"
#include "scf/segment.h"
#include "trace.h"
#include "util/strfmt.h"

namespace perfbench {

/// Centre of mass and total mass of one segment.
struct Summary {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  double mass = 0.0;
  bool operator==(const Summary&) const = default;
};

/// A series element: fixed-size fields first, then the segment.
struct Body {
  int count = 0;
  Summary com;
  pcxx::scf::Segment seg;
};

declareStreamInserter(Body& b) { s << b.seg; }
declareStreamExtractor(Body& b) { s >> b.seg; }

}  // namespace perfbench

PCXX_STREAM_TRIVIAL(perfbench::Summary);

namespace perfbench {
namespace {

using pcxx::scf::Segment;
namespace coll = pcxx::coll;
namespace ds = pcxx::ds;
namespace pfs = pcxx::pfs;
namespace rt = pcxx::rt;

constexpr int kNodes = 4;
// 2000 segments (~11.2 MB per record at 4 nodes): the paper's largest
// Table 1 size. At its 512-segment size (2.8 MB) thread wake-ups are a
// large part of an op, and CPU per op spread 10-33% between seeded runs,
// against 3% here.
constexpr std::int64_t kSegments = 2000;
// 24 records: writing the series is the set-up, about 0.3 s of CPU, so
// the five set-ups of a run stay a small part of it.
constexpr int kRecords = 24;
constexpr std::uint64_t kProjectedShare = 4;  // 1 in 4 reads is projected
const char* const kFile = "series";

/// Record-independent content of element g (masses kept positive).
void generate(coll::Collection<Body>& c, std::uint64_t seed) {
  c.forEachLocal([&](Body& b, std::int64_t g) {
    fillSegment(b.seg, seed, g);
    for (int k = 0; k < b.seg.numberOfParticles; ++k) b.seg.mass[k] += 1.5;
  });
}

Summary summaryOf(const Segment& s) {
  Summary c;
  for (int k = 0; k < s.numberOfParticles; ++k) {
    c.x += s.mass[k] * s.x[k];
    c.y += s.mass[k] * s.y[k];
    c.z += s.mass[k] * s.z[k];
    c.mass += s.mass[k];
  }
  c.x /= c.mass;
  c.y /= c.mass;
  c.z /= c.mass;
  return c;
}

/// Turn every local element into its state in record `record`: a
/// per-record stamp in x[0], then the fixed fields derived from it.
void stamp(coll::Collection<Body>& c, std::uint64_t seed, int record) {
  c.forEachLocal([&](Body& b, std::int64_t g) {
    b.seg.x[0] = stampOf(seed, g, record);
    b.count = b.seg.numberOfParticles;
    b.com = summaryOf(b.seg);
  });
}

/// Elements of `got` that differ from `want` (fixed fields only when
/// `projected`).
std::uint64_t mismatches(const coll::Collection<Body>& got,
                         const coll::Collection<Body>& want, bool projected) {
  std::uint64_t bad = 0;
  for (std::int64_t j = 0; j < want.localCount(); ++j) {
    const Body& a = got.local(j);
    const Body& b = want.local(j);
    if (a.count != b.count || !(a.com == b.com) ||
        (!projected && !sameSegment(a.seg, b.seg))) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

void runSeriesSeek(const Pass& pass, Result& res) {
  const Args& args = *pass.args;
  res.nodes = kNodes;
  res.elements = kSegments;
  res.writerKind = coll::DistKind::Block;
  res.readerKind = coll::DistKind::Cyclic;

  for (int rep = 0; rep < pass.setupReps; ++rep) {
    const Pass round = roundOf(pass, rep);
    const double t0 = now();
    const double c0 = processCpu();
    TempDir dir(args.workdir, "series");
    rt::Machine m(kNodes);
    pfs::PfsConfig cfg;
    cfg.backend = pfs::PfsConfig::Backend::Posix;
    cfg.dir = dir.path();
    pfs::Pfs fs(cfg);
    Instruments inst(pass, m, fs);
    m.run([&](rt::Node& node) {
      enterNode(node);
      Result* skew = pass.traced ? &res : nullptr;
      coll::Processors P;
      coll::Distribution block(kSegments, &P, coll::DistKind::Block);
      coll::Distribution cyclic(kSegments, &P, coll::DistKind::Cyclic);
      coll::Collection<Body> front(&block);
      coll::Collection<Body> expect(&cyclic);
      {
        trace::Scope span("coll.fill", "coll");
        generate(front, args.seed);
        generate(expect, args.seed);
      }
      std::uint64_t mine = 0;
      front.forEachLocal([&](Body& b, std::int64_t) {
        mine += sizeof(b.count) + sizeof(b.com) + b.seg.payloadBytes();
      });
      const std::uint64_t payload = node.allreduceSumU64(mine);
      const std::uint64_t projectedPayload =
          static_cast<std::uint64_t>(kSegments) *
          (sizeof(int) + sizeof(Summary));

      // The series write (set-up; timed as this workload's write metrics).
      double writeSeconds = 0.0;
      std::uint64_t op = 0;
      {
        ds::StreamOptions wopts;
        wopts.codec = "none";
        ds::OStream out(fs, &block, kFile, wopts);
        for (int r = 0; r < kRecords; ++r) {
          stamp(front, args.seed, r);
          trace::setOp(++op);
          const double lat = timedOp(
              node,
              [&] {
                {
                  trace::Scope span("ds.insert", "ds");
                  out << front.field(&Body::count);
                  out << front.field(&Body::com);
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
      node.barrier();
      if (node.id() == 0) {
        res.setup.add(now() - t0);
        res.setupCpu.add(processCpu() - c0);
        res.writeMBps.push_back(static_cast<double>(payload) * kRecords /
                                1e6 / writeSeconds);
        if (pass.traced) res.setups += 1;
      }

      if (node.id() == 0) {
        res.recordPayloadBytes = static_cast<double>(payload);
        res.storedPerPayload.push_back(
            static_cast<double>(allocatedBytes(dir.path() + "/" + kFile)) /
            (static_cast<double>(payload) * kRecords));
      }
      if (node.id() == 0 && rep == 0) {
        res.notes.push_back(pcxx::strfmt(
            "series of %d records x %.2f MB on %s (%s); reads served from "
            "the page cache",
            kRecords, static_cast<double>(payload) / 1e6, dir.path().c_str(),
            filesystemType(dir.path()).c_str()));
      }
      coll::Collection<Body> back(&cyclic);
      std::optional<ds::IStream> in;
      if (node.id() == 0) resetPeakRss();
      double readSeconds = timedOp(node, [&] {
        trace::Scope span("ds.open", "ds");
        in.emplace(fs, &cyclic, kFile);
      });
      double readBytes = 0.0;
      const double deadline = now() + round.seconds;
      for (std::uint64_t i = 0;; ++i) {
        const auto k = static_cast<std::uint32_t>(
            mix(args.seed ^ 0x5EEC, i) % kRecords);
        const bool projected =
            mix(args.seed ^ 0x9A0, i) % kProjectedShare == 0;
        if (projected) in->project({0, 1});
        trace::setOp(++op);
        const double lat = timedOp(
            node,
            [&] {
              {
                trace::Scope span("ds.seek", "dsindex");
                in->seekRecord(k);
              }
              {
                trace::Scope span("ds.read_call", "ds");
                in->read();
              }
              trace::Scope span("ds.extract", "ds");
              *in >> back.field(&Body::count);
              *in >> back.field(&Body::com);
              if (!projected) *in >> back;
            },
            &res.readCpu, skew);
        if (projected) in->project({});
        stamp(expect, args.seed, static_cast<int>(k));
        const std::uint64_t bad =
            node.allreduceSumU64(mismatches(back, expect, projected));
        if (node.id() == 0) {
          res.readLat.add(lat);
          res.attempted += 1;
          if (bad != 0) res.failed += 1;
          if (pass.traced) res.readOps += 1;
          readSeconds += lat;
          readBytes += static_cast<double>(projected ? projectedPayload
                                                     : payload);
        }
        if (!another(node, round, deadline, res.readLat)) break;
      }
      in->close();
      if (node.id() == 0) {
        res.readMBps.push_back(readBytes / 1e6 / readSeconds);
        res.peakRssMB.push_back(peakRssMB());
      }
      if (pass.traced) endTracedPhase(node, fs, kFile, inst, res);
    });
    inst.finish(res);
  }
}

}  // namespace perfbench
