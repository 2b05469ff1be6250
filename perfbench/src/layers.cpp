#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "collection/collection.h"
#include "pfs/codec.h"
#include "redist/redist.h"
#include "scf/io_methods.h"
#include "scf/workload.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

namespace coll = pcxx::coll;
namespace obs = pcxx::obs;
namespace pfs = pcxx::pfs;
namespace rt = pcxx::rt;
using pcxx::Byte;
using pcxx::ByteBuffer;

/// Median seconds per call of `fn` over `batches` batches, each repeated
/// until it lasts at least `minBatch` seconds.
template <typename F>
double secondsPerCall(F&& fn, int batches = 5, double minBatch = 0.05) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    int calls = 0;
    const double t0 = now();
    double t1 = t0;
    do {
      fn();
      ++calls;
      t1 = now();
    } while (t1 - t0 < minBatch);
    per.push_back((t1 - t0) / calls);
  }
  return medianOf(per);
}

struct CodecRates {
  double compressMBps = 0.0;
  double decompressMBps = 0.0;
};

/// lzCompress / lzDecompress over `bytes` in `chunk`-sized pieces, as the
/// pfs codec stage frames them. Decompression covers the chunks that
/// compress; 0 when none does.
CodecRates codecRates(const std::vector<Byte>& bytes, std::uint32_t chunk) {
  CodecRates r;
  if (bytes.empty() || chunk == 0) return r;
  struct Piece {
    std::span<const Byte> raw;
    ByteBuffer packed;  ///< empty when the chunk does not compress
  };
  std::vector<Piece> pieces;
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    Piece p;
    p.raw = std::span<const Byte>(bytes).subspan(
        off, std::min<size_t>(chunk, bytes.size() - off));
    pieces.push_back(std::move(p));
  }
  ByteBuffer scratch;
  const double c = secondsPerCall([&] {
    for (const Piece& p : pieces) pfs::lzCompress(p.raw, scratch);
  });
  r.compressMBps = static_cast<double>(bytes.size()) / 1e6 / c;
  double packedRaw = 0.0;
  for (Piece& p : pieces) {
    if (pfs::lzCompress(p.raw, p.packed)) {
      packedRaw += static_cast<double>(p.raw.size());
    } else {
      p.packed.clear();
    }
  }
  if (packedRaw == 0.0) return r;
  const double d = secondsPerCall([&] {
    for (const Piece& p : pieces) {
      if (!p.packed.empty()) {
        const ByteBuffer out = pfs::lzDecompress(p.packed, p.raw.size());
        if (out.size() != p.raw.size()) throw pcxx::Error("lz size mismatch");
      }
    }
  });
  r.decompressMBps = packedRaw / 1e6 / d;
  return r;
}

double crcMBps(const std::vector<Byte>& bytes) {
  if (bytes.empty()) return 0.0;
  std::uint32_t sink = 0;
  const double s = secondsPerCall([&] { sink ^= pcxx::crc32(bytes); });
  return sink == 0xFFFFFFFFu ? 0.0 : static_cast<double>(bytes.size()) / 1e6 / s;
}

double planBuildSeconds(const Result& res) {
  const coll::Layout writer(coll::Distribution(res.elements, res.nodes,
                                               res.writerKind, 1));
  const coll::Layout reader(coll::Distribution(res.elements, res.nodes,
                                               res.readerKind, 1));
  return secondsPerCall([&] {
    for (int me = 0; me < res.nodes; ++me) {
      const auto plan = pcxx::redist::buildPlan(writer, reader, res.nodes, me);
      if (plan == nullptr) throw pcxx::Error("no plan");
    }
  }) / res.nodes;
}

struct Collectives {
  double barrierUs = 0.0;
  double alltoallvUs = 0.0;
};

/// Direct Node::barrier / Node::alltoallv calls at the workload's node
/// count; the alltoallv message per peer is the workload's redistribution
/// share (record / nodes^2, at most the 1 MiB exchange round).
Collectives collectives(const Result& res) {
  Collectives c;
  const auto msg = static_cast<size_t>(std::min(
      1048576.0, res.recordPayloadBytes / (res.nodes * res.nodes)));
  rt::Machine m(res.nodes);
  m.run([&](rt::Node& node) {
    constexpr int kBarriers = 2000;
    constexpr int kExchanges = 50;
    std::vector<double> b;
    std::vector<double> a;
    std::vector<ByteBuffer> send(static_cast<size_t>(node.nprocs()),
                                 ByteBuffer(msg, Byte{1}));
    std::vector<ByteBuffer> recv;
    for (int rep = 0; rep < 5; ++rep) {
      node.barrier();
      double t0 = now();
      for (int i = 0; i < kBarriers; ++i) node.barrier();
      b.push_back((now() - t0) / kBarriers);
      node.barrier();
      t0 = now();
      for (int i = 0; i < kExchanges; ++i) node.alltoallvInto(send, recv);
      a.push_back((now() - t0) / kExchanges);
    }
    if (node.id() == 0) {
      c.barrierUs = medianOf(b) * 1e6;
      c.alltoallvUs = medianOf(a) * 1e6;
    }
  });
  return c;
}

struct ManualRef {
  double manualWriteMBps = 0.0;
  double manualReadMBps = 0.0;
  double pctOfManual = 0.0;
};

/// The paper's comparison on this workload's record size: Manual Buffering
/// against pC++/streams (unsortedRead), uniform 100-particle segments,
/// memory backend, median of three output+input rounds each.
ManualRef manualReference(const Result& res) {
  ManualRef r;
  constexpr int kParticles = 100;
  const double segBytes = 4.0 + 56.0 * kParticles;
  const auto segments = std::max<std::int64_t>(
      res.nodes, std::llround(res.recordPayloadBytes / segBytes));
  pfs::Pfs fs(pfs::PfsConfig{});
  rt::Machine m(res.nodes);
  std::vector<double> mw, mr, total[2];
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(segments, &P, coll::DistKind::Block);
    coll::Collection<pcxx::scf::Segment> data(&d);
    coll::Collection<pcxx::scf::Segment> back(&d);
    pcxx::scf::fillDeterministic(data, kParticles);
    const std::unique_ptr<pcxx::scf::IoMethod> methods[2] = {
        pcxx::scf::makeManualBufferingIo(), pcxx::scf::makeStreamsIo(false)};
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < 2; ++i) {
        const double w = timedOp(
            node, [&] { methods[i]->output(node, fs, data, "ref"); });
        const double rd = timedOp(node, [&] {
          methods[i]->input(node, fs, back, "ref", kParticles);
        });
        bad += pcxx::scf::verifyDeterministic(back, kParticles);
        fs.remove(node, "ref");
        if (node.id() != 0) continue;
        total[i].push_back(w + rd);
        if (i == 0) {
          mw.push_back(w);
          mr.push_back(rd);
        }
      }
    }
  });
  if (bad.load() != 0) throw pcxx::Error("manual reference read back wrong");
  const double bytes = static_cast<double>(segments) * segBytes;
  r.manualWriteMBps = bytes / 1e6 / medianOf(mw);
  r.manualReadMBps = bytes / 1e6 / medianOf(mr);
  r.pctOfManual = 100.0 * medianOf(total[0]) / medianOf(total[1]);
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Metrics layerMetrics(const Result& traced, const Result& untraced,
                     const std::vector<trace::Span>& spans) {
  const trace::Totals t = totals(spans);
  const double n = traced.nodes;
  const double w = std::max<double>(1.0, static_cast<double>(traced.writeOps));
  const double r = std::max<double>(1.0, static_cast<double>(traced.readOps));
  const double ops = std::max<double>(
      1.0, static_cast<double>(traced.writeOps + traced.readOps));
  const auto span = [&](const char* name) {
    const auto it = t.byName.find(name);
    return it == t.byName.end() ? 0.0 : it->second / n;
  };
  const auto self = [&](const char* layer) {
    const auto it = t.selfByLayer.find(layer);
    return it == t.selfByLayer.end() ? 0.0 : it->second / n / ops;
  };
  const obs::NodeSnapshot& o = traced.obs.merged;
  const auto cnt = [&](obs::Counter c) {
    return static_cast<double>(o.counter(c));
  };

  Metrics m;
  const auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  // ds: spans per record op (node mean), obs byte counters per record.
  put("ds.insert_s", span("ds.insert") / w, "s");
  put("ds.write_call_s", span("ds.write_call") / w, "s");
  put("ds.close_s", span("ds.close") / w, "s");
  put("ds.open_s", span("ds.open") / r, "s");
  put("ds.read_call_s", span("ds.read_call") / r, "s");
  put("ds.extract_s", span("ds.extract") / r, "s");
  put("ds.header_bytes", cnt(obs::Counter::DsHeaderBytes) / w, "bytes");
  put("ds.size_table_bytes", cnt(obs::Counter::DsSizeTableBytes) / w,
      "bytes");
  put("ckpt.save_s", span("ckpt.save") / w, "s");
  put("ckpt.restore_s", span("ckpt.restore") / r, "s");
  // Share of save() wall time that goes when one stage is switched off.
  const Result::SaveSplit& ss = traced.saveSplit;
  const auto share = [&](double without) {
    return ss.full > 0.0 ? 100.0 * (ss.full - without) / ss.full : 0.0;
  };
  put("ckpt.codec_pct", share(ss.noCodec), "%");
  put("ckpt.crc_pct", share(ss.noCrc), "%");
  put("ckpt.fsync_pct", share(ss.noSync), "%");
  // pfs: hook-to-hook spans (node threads and aio threads) and obs counts.
  put("pfs.write_ops", cnt(obs::Counter::PfsWriteOps) / w, "count");
  put("pfs.read_ops", cnt(obs::Counter::PfsReadOps) / r, "count");
  put("pfs.write_bytes", cnt(obs::Counter::PfsWriteBytes) / w, "bytes");
  put("pfs.read_bytes", cnt(obs::Counter::PfsReadBytes) / r, "bytes");
  put("pfs.write_s", span("pfs.write") / w, "s");
  put("pfs.read_s", span("pfs.read") / r, "s");
  // pfs/codec and util/crc32 on the workload's own stored record bytes.
  const CodecRates cr = codecRates(
      traced.recordBytes,
      traced.codecChunkBytes != 0 ? traced.codecChunkBytes : 64 * 1024);
  put("codec.compress_MBps", cr.compressMBps, "MB/s");
  put("codec.decompress_MBps", cr.decompressMBps, "MB/s");
  const double raw = cnt(obs::Counter::PfsCodecRawBytes);
  put("codec.stored_ratio",
      ratio(cnt(obs::Counter::PfsCodecStoredBytes), raw), "ratio");
  put("codec.dedup_hit_ratio",
      traced.codecChunkBytes == 0
          ? 0.0
          : ratio(cnt(obs::Counter::PfsCodecDedupHits),
                  std::floor(raw / traced.codecChunkBytes)),
      "ratio");
  put("crc.MBps", crcMBps(traced.recordBytes), "MB/s");
  // aio.
  put("aio.drain_s", traced.aioDrainSeconds, "s");
  put("aio.prefetch_hit_ratio",
      ratio(cnt(obs::Counter::AioPrefetchHits),
            cnt(obs::Counter::AioPrefetchHits) +
                cnt(obs::Counter::AioPrefetchMisses)),
      "ratio");
  // redist.
  put("redist.plan_build_s", planBuildSeconds(traced), "s");
  put("redist.plan_hit_ratio",
      ratio(cnt(obs::Counter::RedistPlanHits),
            cnt(obs::Counter::RedistPlanHits) +
                cnt(obs::Counter::RedistPlanMisses)),
      "ratio");
  put("redist.bytes_sent", cnt(obs::Counter::RedistBytesSent) / r, "bytes");
  // dsindex.
  put("ds.seek_s", span("ds.seek") / r, "s");
  put("dsindex.hits", cnt(obs::Counter::DsIndexHits) / r, "count");
  put("dsindex.fallbacks", cnt(obs::Counter::DsIndexFallbacks), "count");
  // rt.
  put("rt.skew_wait_s", traced.skew.sum() / n / ops, "s");
  const Collectives c = collectives(traced);
  put("rt.barrier_us", c.barrierUs, "us");
  put("rt.alltoallv_us", c.alltoallvUs, "us");
  // coll.
  put("coll.fill_s",
      span("coll.fill") /
          std::max<double>(1.0, static_cast<double>(traced.setups)),
      "s");
  put("coll.payload_bytes", traced.recordPayloadBytes, "bytes");
  // Self time (span minus its children) per record op, node mean.
  put("self.ds_s", self("ds"), "s");
  put("self.dsindex_s", self("dsindex"), "s");
  put("self.ckpt_s", self("ckpt"), "s");
  put("self.pfs_s", self("pfs"), "s");
  // Tracing cost: traced vs untraced median CPU per record op of this run.
  const double base = untraced.writeCpu.median() + untraced.readCpu.median();
  const double with = traced.writeCpu.median() + traced.readCpu.median();
  put("trace_overhead_pct", base > 0.0 ? 100.0 * (with / base - 1.0) : 0.0,
      "%");
  // Reference: the paper's Manual Buffering method (report only).
  const ManualRef ref = manualReference(traced);
  put("ref.manual_write_MBps", ref.manualWriteMBps, "MB/s");
  put("ref.manual_read_MBps", ref.manualReadMBps, "MB/s");
  put("ref.pct_of_manual", ref.pctOfManual, "%");
  return m;
}

bool layerChecks(const std::string& workload, const Result& traced,
                 std::vector<std::string>& why) {
  const obs::NodeSnapshot& o = traced.obs.merged;
  const auto cnt = [&](obs::Counter c) { return o.counter(c); };
  const auto require = [&](bool ok, const char* what) {
    if (!ok) why.push_back(std::string("layer check failed: ") + what);
  };
  const std::size_t before = why.size();
  require(traced.haveObs, "obs registry snapshot present");
  if (workload == "series_seek") {
    require(cnt(obs::Counter::DsIndexFallbacks) == 0, "dsindex.fallbacks == 0");
    require(cnt(obs::Counter::DsIndexHits) > 0, "dsindex.hits > 0");
    require(cnt(obs::Counter::RedistPlanHits) > 0, "redist plan hits > 0");
  } else if (workload == "checkpoint_restart") {
    require(cnt(obs::Counter::PfsCodecDedupHits) > 0, "codec dedup hits > 0");
    require(cnt(obs::Counter::AioPrefetchHits) > 0, "aio prefetch active");
    require(cnt(obs::Counter::AioSubmits) > 0, "aio write-behind active");
  } else if (workload == "scf_frames") {
    require(cnt(obs::Counter::PfsCodecRawBytes) == 0, "no codec framing");
    require(cnt(obs::Counter::RedistBytesSent) == 0 &&
                cnt(obs::Counter::RedistPlanHits) +
                        cnt(obs::Counter::RedistPlanMisses) ==
                    0,
            "no redistribution");
  }
  return why.size() == before;
}

}  // namespace perfbench
