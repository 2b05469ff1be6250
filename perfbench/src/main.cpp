// Host-clock d/stream benchmark driver.
//
//   pcxx_perfbench --workload <scf_frames|checkpoint_restart|series_seek>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// runs the workload untraced for half the time and traced for the other
// half, and prints the per-layer metrics (spans, obs counters, direct
// function timings). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every value read back is verified; any mismatch or thrown error makes
// the run incorrect and the exit code 1. Exit code 2 = refused or usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "common.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: pcxx_perfbench --workload "
               "<scf_frames|checkpoint_restart|series_seek> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

using Runner = void (*)(const Pass&, Result&);

Runner runnerFor(const std::string& workload) {
  if (workload == "scf_frames") return runScfFrames;
  if (workload == "checkpoint_restart") return runCheckpointRestart;
  if (workload == "series_seek") return runSeriesSeek;
  return nullptr;
}

/// Run one pass; a thrown error counts as one failed op and is reported.
void runPass(Runner run, const Pass& pass, Result& res) {
  trace::clear();
  trace::setEnabled(pass.traced);
  try {
    run(pass, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload failed: %s\n", e.what());
    res.attempted += 1;
    res.failed += 1;
  }
  trace::setEnabled(false);
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_ops_ratio %.6f (%llu of %llu record ops)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// The gated end-to-end metrics, and (printed only) the wall-clock ones.
/// Gating uses CPU time: host steal episodes on a shared VM, amplified by
/// the SPMD barriers, move wall-clock figures by up to 3x between runs,
/// while the process CPU time of the same ops stays within ~12% (see
/// README.md, "Noise").
Metrics endToEnd(const Result& res) {
  const auto list = [](const char* what, const std::vector<double>& v) {
    std::printf("%s (%zu):", what, v.size());
    for (size_t i = 0; i < v.size() && i < 16; ++i) std::printf(" %.4g", v[i]);
    std::printf("%s\n", v.size() > 16 ? " ..." : "");
  };
  list("set-up wall seconds", res.setup.v);
  list("set-up CPU seconds", res.setupCpu.v);
  list("write MB/s per repetition", res.writeMBps);
  list("read MB/s per repetition", res.readMBps);
  list("peak RSS MB per repetition", res.peakRssMB);
  list("stored bytes per payload byte", res.storedPerPayload);
  const auto wall = [](const char* name, double value, const char* unit) {
    std::printf("%-32s %16.6f %s (wall clock; not gated)\n", name, value,
                unit);
  };
  wall("setup_wall_s", res.setup.median(), "s");
  wall("write_MBps", medianOf(res.writeMBps), "MB/s");
  wall("read_MBps", medianOf(res.readMBps), "MB/s");
  wall("write_p50_ms", res.writeLat.median() * 1e3, "ms");
  wall("read_p50_ms", res.readLat.median() * 1e3, "ms");
  for (const auto& [name, samples] :
       {std::pair<const char*, const Samples*>{"write_tail_ms", &res.writeLat},
        std::pair<const char*, const Samples*>{"read_tail_ms", &res.readLat}}) {
    const Tail t = tailOf(*samples);
    std::printf("%-32s %16.6f ms (p%g of %zu samples; wall clock; not gated)\n",
                name, t.value * 1e3, t.percentile, t.samples);
  }
  Metrics m;
  m["setup_s"] = {res.setupCpu.median(), "s"};
  m["write_cpu_ms"] = {res.writeCpu.median() * 1e3, "ms"};
  m["read_cpu_ms"] = {res.readCpu.median() * 1e3, "ms"};
  m["stored_bytes_per_payload_byte"] = {medianOf(res.storedPerPayload),
                                        "ratio"};
  m["peak_rss_MB"] = {medianOf(res.peakRssMB), "MB"};
  return m;
}

int run(const Args& args) {
  const Runner runner = runnerFor(args.workload);
  if (runner == nullptr) return usage("unknown workload");
  const Environment env = environment();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: %s\n", env.compileFlags.c_str());
  std::printf("host: nproc=%d llc=%.1f MiB workdir fs=%s\n", env.nproc,
              static_cast<double>(env.llcBytes) / (1 << 20),
              filesystemType(args.workdir).c_str());
  std::printf("codec pinned per stream; PCXX_CODEC unset\n");

  if (!args.trace) {
    Pass pass{&args, args.seconds, kSetupReps, false, kMinSamples};
    Result res;
    runPass(runner, pass, res);
    for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
    const Metrics m = endToEnd(res);
    const bool correct = res.failed == 0 && res.attempted > 0;
    printResult(correct, res.attempted, res.failed, m);
    return correct ? 0 : 1;
  }

  Pass plain{&args, args.seconds / 2, 1, false};
  Pass traced{&args, args.seconds / 2, 1, true};
  Result base;
  Result res;
  runPass(runner, plain, base);
  runPass(runner, traced, res);
  for (const std::string& note : res.notes) std::printf("%s\n", note.c_str());
  std::vector<std::string> why;
  bool correct = base.failed == 0 && res.failed == 0 && res.attempted > 0;
  Metrics m;
  if (correct) {
    correct = layerChecks(args.workload, res, why);
    const std::vector<trace::Span> spans = trace::collect();
    const std::string out =
        args.traceDir + "/trace-" + args.workload + ".json";
    trace::writeJson(out, spans, res.obsJson);
    std::printf("trace: %zu spans + obs snapshot written to %s\n",
                spans.size(), out.c_str());
    if (res.codecChunkBytes != 0 && res.writeOps > 0) {
      std::printf(
          "cross-check: %.3f MB codec-stored per save (pfs.codec_stored_bytes"
          ") vs %.3f MB allocated per retained epoch (st_blocks)\n",
          static_cast<double>(res.obs.merged.counter(
              pcxx::obs::Counter::PfsCodecStoredBytes)) /
              static_cast<double>(res.writeOps) / 1e6,
          medianOf(res.storedPerPayload) * res.recordPayloadBytes / 1e6);
    }
    if (res.saveSplit.full > 0.0) {
      const Result::SaveSplit& ss = res.saveSplit;
      std::printf(
          "save split: %.1f ms per save(); %.1f ms with codec none, %.1f ms "
          "without data checksums, %.1f ms without fsync (wall medians)\n",
          ss.full * 1e3, ss.noCodec * 1e3, ss.noCrc * 1e3, ss.noSync * 1e3);
    }
    try {
      m = layerMetrics(res, base, spans);
    } catch (const std::exception& e) {
      why.push_back(std::string("layer measurement failed: ") + e.what());
      correct = false;
    }
  }
  for (const std::string& w : why) std::fprintf(stderr, "perfbench: %s\n", w.c_str());
  printResult(correct, base.attempted + res.attempted,
              base.failed + res.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = val;
        haveWorkload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        args.workdir = val;
      } else {
        return usage("unknown option");
      }
    } catch (const std::exception&) {
      return usage("bad option value");
    }
  }
  if (!haveWorkload || args.workdir.empty() || args.seconds <= 0.0) {
    return usage("--workload, --workdir and a positive --seconds are required");
  }
  // Pfs reads PCXX_CODEC at construction: "off" would strip the
  // checkpoint workload's codec, "lz" would frame the other two.
  if (std::getenv("PCXX_CODEC") != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to run with PCXX_CODEC set\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing an unoptimized or sanitizer build\n");
  return 2;
#endif
  // Temp dirs of this process live under one directory removed at exit.
  args.traceDir = args.workdir;
  args.workdir = args.traceDir + "/tmp-" + std::to_string(::getpid());
  std::filesystem::create_directories(args.workdir);
  const int rc = perfbench::run(args);
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  return rc;
}
