// Shared pieces of the host-clock d/stream benchmark: the run context,
// sample statistics, the barrier-bracketed op timer, and environment facts.
#pragma once

#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "obs/obs.h"
#include "pfs/parallel_file.h"
#include "runtime/machine.h"
#include "scf/segment.h"

namespace perfbench {

/// Host seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed so far by all threads of this process. Time the
/// host steals from the VM's vCPUs is not counted.
inline double processCpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Samples of one timed quantity (seconds).
struct Samples {
  std::vector<double> v;

  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  double median() const;
  double sum() const;
};

/// The tail percentile: the highest of {99.9, 99, 95, 90, 75, 50} (nearest
/// rank) with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
Tail tailOf(const Samples& s);

/// Median of a plain list (0 when empty).
double medianOf(std::vector<double> v);

/// Everything one workload measured.
struct Result {
  // End-to-end (untraced).
  Samples setup;                 ///< seconds per set-up
  Samples setupCpu;              ///< process CPU seconds per set-up
  std::vector<double> writeMBps; ///< per repetition (median reported)
  std::vector<double> readMBps;
  Samples writeLat;              ///< seconds per record write op
  Samples readLat;               ///< seconds per record read op
  Samples writeCpu;              ///< process CPU seconds per record write op
  Samples readCpu;               ///< process CPU seconds per record read op
  /// Allocated storage bytes (st_blocks * 512; the raw store on the
  /// memory backend) per live payload byte, one value per measurement.
  std::vector<double> storedPerPayload;
  std::vector<double> peakRssMB;   ///< VmHWM per measured repetition
  std::uint64_t attempted = 0;   ///< record ops attempted
  std::uint64_t failed = 0;      ///< record ops that threw or mismatched
  std::vector<std::string> notes;  ///< printed facts (sizes, settings)

  // Shape of the workload, for the per-layer micro measurements.
  int nodes = 0;
  std::int64_t elements = 0;           ///< collection size
  pcxx::coll::DistKind writerKind = pcxx::coll::DistKind::Block;
  pcxx::coll::DistKind readerKind = pcxx::coll::DistKind::Block;
  double recordPayloadBytes = 0.0;     ///< payload of one record
  std::uint32_t codecChunkBytes = 0;   ///< 0 = the workload uses no codec
  std::vector<pcxx::Byte> recordBytes; ///< a sample of stored record bytes

  // Per-layer (traced pass only).
  std::uint64_t writeOps = 0;    ///< record write ops in the traced pass
  std::uint64_t readOps = 0;     ///< record read ops in the traced pass
  std::uint64_t setups = 0;      ///< set-ups in the traced pass
  Samples skew;                  ///< per-node wait at the driver's barrier
  double aioDrainSeconds = 0.0;  ///< close() of a write-behind stream
  /// Median save() seconds with the workload's options, and with codec +
  /// dedup, data checksums or fsync switched off (checkpoint_restart).
  struct SaveSplit {
    double full = 0.0;
    double noCodec = 0.0;
    double noCrc = 0.0;
    double noSync = 0.0;
  } saveSplit;
  std::mutex skewMu;
  bool haveObs = false;
  pcxx::obs::MetricsSnapshot obs;  ///< Wall-mode obs registry snapshot
  std::string obsJson;
};

/// Command line of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;   ///< temp dirs of this run (removed at exit)
  std::string traceDir;  ///< where the traced run writes its spans
};

/// Set-up repetitions per run: setup_s is their median. Each set-up is
/// followed by its share of the measured phase (see roundOf), so set-ups
/// and ops alike are sampled across the whole run, not one moment of it.
constexpr int kSetupReps = 5;

/// Fewest samples the end-to-end run takes of each per-op latency, so the
/// tail percentile (see tailOf) is at least p90 on every run.
constexpr std::size_t kMinSamples = 100;

/// One pass of a workload. `traced` enables spans, pfs hooks and the obs
/// registry for the whole pass, set-up included.
struct Pass {
  const Args* args = nullptr;
  double seconds = 0.0;
  int setupReps = kSetupReps;
  bool traced = false;
  std::size_t minSamples = 0;  ///< keep going until this many samples
};

/// Round `rep` of `pass`: one set-up and pass.seconds / pass.setupReps of
/// measuring, with a cumulative sample floor that reaches pass.minSamples
/// in the last round.
Pass roundOf(const Pass& pass, int rep);

/// The traced pass's attachments to one machine and its file system: the
/// Wall-mode obs registry and the pfs span hooks. Inert when untraced.
class Instruments {
 public:
  Instruments(const Pass& pass, pcxx::rt::Machine& m, pcxx::pfs::Pfs& fs);
  ~Instruments();
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;
  /// Store the registry snapshot in `res` unless one was already taken.
  void snapshot(Result& res);
  /// Detach, then snapshot (call after run()).
  void finish(Result& res);

 private:
  pcxx::rt::Machine& machine_;
  std::unique_ptr<pcxx::obs::MetricsRegistry> registry_;
};

/// Node-side prologue of every SPMD region: binds spans to the node.
void enterNode(pcxx::rt::Node& node);

/// Collective end of a traced pass's measured phase: stop span recording,
/// snapshot the obs registry, and (node 0) copy up to 8 MiB of the stored
/// logical bytes of `fsName` into res.recordBytes for the codec and CRC
/// micro measurements.
void endTracedPhase(pcxx::rt::Node& node, pcxx::pfs::Pfs& fs,
                    const std::string& fsName, Instruments& inst,
                    Result& res);

/// Collective: node 0 decides whether another repetition starts — before
/// `deadline`, or while `samples` is below pass.minSamples; every node
/// gets the same answer.
bool another(pcxx::rt::Node& node, const Pass& pass, double deadline,
             const Samples& samples);

/// Barrier-bracketed op: every node enters the driver's barrier, runs `op`,
/// and meets at a second barrier. Returns node 0's host seconds between
/// the two barriers (the value is meaningful on node 0). With `cpu`
/// non-null, node 0 adds the process CPU seconds of the op to it. The
/// clock is process-wide, so node 0 reads it only while every node is
/// parked between two extra barriers: no node can have started the op
/// before the first reading or gone on to the caller's verification
/// before the second. With `skew` non-null, each node's wait inside the
/// closing barrier is added to it.
template <typename F>
double timedOp(pcxx::rt::Node& node, F&& op, Samples* cpu = nullptr,
               Result* skew = nullptr) {
  double c0 = 0.0;
  if (cpu != nullptr) {
    node.barrier();
    if (node.id() == 0) c0 = processCpu();
  }
  node.barrier();
  const double t0 = now();
  op();
  const double arrive = now();
  node.barrier();
  const double t1 = now();
  if (cpu != nullptr) {
    if (node.id() == 0) cpu->add(processCpu() - c0);
    node.barrier();
  }
  if (skew != nullptr) {
    std::lock_guard<std::mutex> lock(skew->skewMu);
    skew->skew.add(t1 - arrive);
  }
  return t1 - t0;
}

/// Process-wide environment facts recorded in every result.
struct Environment {
  int nproc = 0;
  std::uint64_t llcBytes = 0;
  std::string compileFlags;
};
Environment environment();

/// VmHWM of this process in MB (10^6 bytes).
double peakRssMB();

/// Reset VmHWM to the current RSS (/proc/self/clear_refs), so the next
/// peakRssMB() covers only what runs in between.
void resetPeakRss();

/// Allocated bytes of a file (st_blocks * 512), 0 when absent.
std::uint64_t allocatedBytes(const std::string& path);

/// Filesystem type name of `path` (statfs magic mapped to a name).
std::string filesystemType(const std::string& path);

/// A fresh, unique directory under `parent`; removed (recursively) by the
/// destructor, including when the workload unwinds with an exception.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Stable 64-bit mix of (a, b): the benchmark's value generator.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A double in [-1, 1) drawn from mix(a, b).
inline double mixDouble(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix(a, b) >> 11) * 0x1.0p-52 - 1.0;
}

/// Seeded variable-size segment g: 50..150 particles (mean 100), every
/// value in [-1, 1).
void fillSegment(pcxx::scf::Segment& s, std::uint64_t seed, std::int64_t g);

/// The per-record stamp a frame series writes into x[0] of segment g, so
/// that every record of a series is distinct.
double stampOf(std::uint64_t seed, std::int64_t g, int record);

/// Element-exact equality of two segments (count and all seven fields).
bool sameSegment(const pcxx::scf::Segment& a, const pcxx::scf::Segment& b);

/// Local elements of `got` that differ from `want` (same layout).
std::uint64_t mismatches(const pcxx::coll::Collection<pcxx::scf::Segment>& got,
                         const pcxx::coll::Collection<pcxx::scf::Segment>& want);

// Workload entry points (one pass each; `res` starts empty).
void runScfFrames(const Pass& pass, Result& res);
void runCheckpointRestart(const Pass& pass, Result& res);
void runSeriesSeek(const Pass& pass, Result& res);

}  // namespace perfbench
