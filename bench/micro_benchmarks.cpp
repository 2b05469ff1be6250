// Micro-benchmarks (google-benchmark) for the substrate layers: runtime
// collectives, byte codecs, the pfs LZ chunk codec and memory store,
// checksums, and the d/stream insert/extract path (real host time — these
// measure this implementation, not the 1995 platforms). Cases that run an
// rt::Machine do their work on node threads, so they report wall time
// (UseRealTime): the main thread's CPU time would leave the work out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_obs.h"
#include "src/collection/collection.h"
#include "src/dstream/dstream.h"
#include "src/pfs/backend.h"
#include "src/pfs/codec.h"
#include "src/scf/io_methods.h"
#include "src/scf/segment.h"
#include "src/scf/workload.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

using namespace pcxx;

namespace {

void BM_Crc32(benchmark::State& state) {
  ByteBuffer data(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ByteCodecU64(benchmark::State& state) {
  ByteBuffer buf;
  buf.reserve(8 * 1024);
  for (auto _ : state) {
    buf.clear();
    ByteWriter w(buf);
    for (std::uint64_t i = 0; i < 1024; ++i) w.u64(i * 0x9E3779B97F4A7C15ull);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8 * 1024);
}
BENCHMARK(BM_ByteCodecU64);

/// SCF segment payload bytes (count + seven double arrays per segment) of
/// a Plummer-sphere fill: the particle data the checkpoint codec sees.
ByteBuffer plummerSegmentBytes(std::int64_t segments) {
  ByteBuffer out;
  rt::Machine machine(1);
  machine.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(segments, &P, coll::DistKind::Block);
    coll::Collection<scf::Segment> data(&d);
    scf::fillPlummer(data, 100, 7);
    data.forEachLocal([&](scf::Segment& seg, std::int64_t) {
      const auto put = [&out](const void* p, std::size_t bytes) {
        const auto* b = static_cast<const Byte*>(p);
        out.insert(out.end(), b, b + bytes);
      };
      put(&seg.numberOfParticles, sizeof seg.numberOfParticles);
      for (const double* a :
           {seg.x, seg.y, seg.z, seg.vx, seg.vy, seg.vz, seg.mass})
        put(a, sizeof(double) * seg.numberOfParticles);
    });
  });
  return out;
}

constexpr std::size_t kCodecChunk = 64 * 1024;

/// pfs chunk-codec compression over Plummer bytes in 64 KiB chunks (the
/// default CodecSpec::chunkBytes), as CodecStorage seals them.
void BM_LzCompress(benchmark::State& state) {
  const ByteBuffer bytes = plummerSegmentBytes(256);
  ByteBuffer packed;
  for (auto _ : state) {
    for (std::size_t off = 0; off < bytes.size(); off += kCodecChunk) {
      const std::size_t len = std::min(kCodecChunk, bytes.size() - off);
      benchmark::DoNotOptimize(
          pfs::lzCompress(std::span<const Byte>(bytes).subspan(off, len),
                          packed));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_LzCompress);

/// Decompression of the chunks BM_LzCompress packs (incompressible chunks
/// are stored raw by the codec and skipped here).
void BM_LzDecompress(benchmark::State& state) {
  const ByteBuffer bytes = plummerSegmentBytes(256);
  std::vector<std::pair<ByteBuffer, std::size_t>> packed;
  std::int64_t rawBytes = 0;
  for (std::size_t off = 0; off < bytes.size(); off += kCodecChunk) {
    const std::size_t len = std::min(kCodecChunk, bytes.size() - off);
    ByteBuffer p;
    if (pfs::lzCompress(std::span<const Byte>(bytes).subspan(off, len), p)) {
      packed.emplace_back(std::move(p), len);
      rawBytes += static_cast<std::int64_t>(len);
    }
  }
  for (auto _ : state) {
    for (const auto& [p, len] : packed)
      benchmark::DoNotOptimize(pfs::lzDecompress(p, len));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rawBytes);
}
BENCHMARK(BM_LzDecompress);

void BM_Barrier(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  rt::Machine machine(nprocs);
  for (auto _ : state) {
    machine.run([](rt::Node& node) {
      for (int i = 0; i < 100; ++i) node.barrier();
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Alltoallv(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  rt::Machine machine(nprocs);
  for (auto _ : state) {
    machine.run([&](rt::Node& node) {
      std::vector<ByteBuffer> send(static_cast<size_t>(nprocs),
                                   ByteBuffer(1024));
      for (int i = 0; i < 20; ++i) {
        benchmark::DoNotOptimize(node.alltoallv(send));
      }
    });
  }
}
BENCHMARK(BM_Alltoallv)->Arg(2)->Arg(8)->UseRealTime();

/// The full d/stream output+input path on the host (memory backend, no
/// timing model): measures the library's real CPU cost per element.
void BM_StreamRoundtrip(benchmark::State& state) {
  const std::int64_t segments = state.range(0);
  rt::Machine machine(4);
  for (auto _ : state) {
    pfs::Pfs fs{pfs::PfsConfig{}};
    machine.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, 100);
      ds::OStream out(fs, &d, "bench");
      out << data;
      out.write();
      coll::Collection<scf::Segment> back(&d);
      ds::IStream in(fs, &d, "bench");
      in.unsortedRead();
      in >> back;
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * segments *
                          (4 + 7 * 8 * 100) * 2);
}
BENCHMARK(BM_StreamRoundtrip)->Arg(64)->Arg(512)->UseRealTime();

/// Buffered (one parallel op) vs unbuffered (one op per field) on the host:
/// the micro version of the paper's headline comparison.
void BM_UnbufferedVsBuffered(benchmark::State& state) {
  const bool buffered = state.range(0) != 0;
  const std::int64_t segments = 256;
  rt::Machine machine(4);
  for (auto _ : state) {
    pfs::Pfs fs{pfs::PfsConfig{}};
    machine.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(segments, &P, coll::DistKind::Block);
      coll::Collection<scf::Segment> data(&d);
      scf::fillDeterministic(data, 100);
      auto method = buffered ? scf::makeManualBufferingIo()
                             : scf::makeUnbufferedIo();
      method->output(node, fs, data, "bench");
      coll::Collection<scf::Segment> back(&d);
      method->input(node, fs, back, "bench", 100);
    });
  }
}
BENCHMARK(BM_UnbufferedVsBuffered)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"buffered"})
    ->UseRealTime();

/// The store under every simulation-mode bench: 4 threads each extend a
/// fresh MemStorage by 25 MB at disjoint offsets, the pattern of one
/// node-order write (ParallelFile::writeOrdered). Reports wall time and
/// the CPU time of the whole process (the writes run on worker threads).
void BM_MemStorageOrderedWrite(benchmark::State& state) {
  constexpr int kThreads = 4;
  constexpr size_t kBlock = 25u << 20;
  std::vector<ByteBuffer> blocks;
  for (int t = 0; t < kThreads; ++t) {
    blocks.emplace_back(kBlock, static_cast<Byte>(t + 1));
  }
  for (auto _ : state) {
    pfs::MemStorage store;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        store.writeAt(static_cast<std::uint64_t>(t) * kBlock,
                      blocks[static_cast<size_t>(t)]);
      });
    }
    for (auto& th : threads) th.join();
    benchmark::DoNotOptimize(store.size());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          kThreads * static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_MemStorageOrderedWrite)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Small-file cost of the store: create, write 8 KiB, destroy.
void BM_MemStorageSmallFile(benchmark::State& state) {
  const ByteBuffer data(8 * 1024, 0x5A);
  for (auto _ : state) {
    pfs::MemStorage store;
    store.writeAt(0, data);
    benchmark::DoNotOptimize(store.size());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MemStorageSmallFile)->Unit(benchmark::kMicrosecond);

/// --metrics-json support: google-benchmark owns argv, so the flag is
/// stripped before Initialize(). When given, one instrumented stream
/// round-trip (the BM_StreamRoundtrip workload) is run and its obs snapshot
/// dumped — enough for phase-level before/after diffs of the library path.
std::string extractMetricsPath(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < *argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      path = argv[i] + 15;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

void dumpInstrumentedRoundtrip(const std::string& path) {
  benchutil::MetricsDump dump(path);
  rt::Machine machine(4);
  pfs::Pfs fs{pfs::PfsConfig{}};
  dump.attach(machine);
  machine.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(512, &P, coll::DistKind::Block);
    coll::Collection<scf::Segment> data(&d);
    scf::fillDeterministic(data, 100);
    ds::OStream out(fs, &d, "bench");
    out << data;
    out.write();
    coll::Collection<scf::Segment> back(&d);
    ds::IStream in(fs, &d, "bench");
    in.unsortedRead();
    in >> back;
  });
  dump.capture("stream_roundtrip segments=512 nprocs=4");
  dump.write();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metricsPath = extractMetricsPath(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metricsPath.empty()) dumpInstrumentedRoundtrip(metricsPath);
  return 0;
}
