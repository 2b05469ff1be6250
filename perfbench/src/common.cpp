#include "common.h"

#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "trace.h"

namespace perfbench {

double medianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::median() const { return medianOf(v); }

double Samples::sum() const {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

Tail tailOf(const Samples& s) {
  Tail t;
  t.samples = s.size();
  if (s.v.empty()) return t;
  std::vector<double> v = s.v;
  std::sort(v.begin(), v.end());
  const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const size_t n = v.size();
  for (double p : ladder) {
    // Nearest-rank percentile; samples strictly beyond its rank.
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const size_t idx = rank == 0 ? 0 : rank - 1;
    if (n - (idx + 1) >= 10 || p == 50.0) {
      t.value = v[idx];
      t.percentile = p;
      return t;
    }
  }
  return t;
}

namespace {

std::uint64_t parseCacheSize(std::string s) {
  std::uint64_t mult = 1;
  if (!s.empty() && (s.back() == 'K' || s.back() == 'k')) mult = 1024;
  if (!s.empty() && s.back() == 'M') mult = 1024 * 1024;
  if (mult != 1) s.pop_back();
  try {
    return std::stoull(s) * mult;
  } catch (...) {
    return 0;
  }
}

std::string readLine(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

/// Largest unified/data cache of cpu0 at the highest level (what lscpu
/// reports as the LLC; sysfs is its source).
std::uint64_t llcBytes() {
  std::uint64_t best = 0;
  int bestLevel = -1;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (!std::filesystem::exists(dir)) break;
    if (readLine(dir + "/type") == "Instruction") continue;
    const int level = std::atoi(readLine(dir + "/level").c_str());
    const std::uint64_t size = parseCacheSize(readLine(dir + "/size"));
    if (level > bestLevel || (level == bestLevel && size > best)) {
      bestLevel = level;
      best = size;
    }
  }
  return best;
}

std::string compileFlags() {
  std::ostringstream o;
#ifdef __OPTIMIZE__
  o << "__OPTIMIZE__=1";
#else
  o << "__OPTIMIZE__=0";
#endif
#ifdef NDEBUG
  o << " NDEBUG=1";
#else
  o << " NDEBUG=0";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  o << " sanitizer=1";
#else
  o << " sanitizer=0";
#endif
  o << " PCXX_OBS_ENABLED=" << PCXX_OBS_ENABLED;
  o << " PCXX_AIO_ENABLED=" << PCXX_AIO_ENABLED;
  return o.str();
}

}  // namespace

Environment environment() {
  Environment e;
  e.nproc = static_cast<int>(std::thread::hardware_concurrency());
  e.llcBytes = llcBytes();
  e.compileFlags = compileFlags();
  return e;
}

double peakRssMB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream f(line.substr(6));
      double kb = 0.0;
      f >> kb;
      return kb * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t allocatedBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_blocks) * 512u;
}

std::string filesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

TempDir::TempDir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  std::filesystem::create_directories(parent);
  for (;;) {
    const std::string p = parent + "/" + tag + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
    if (std::filesystem::create_directory(p)) {
      path_ = p;
      return;
    }
  }
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

namespace {

double* fieldOf(const pcxx::scf::Segment& s, int f) {
  double* const fields[7] = {s.x, s.y, s.z, s.vx, s.vy, s.vz, s.mass};
  return fields[f];
}

}  // namespace

void fillSegment(pcxx::scf::Segment& s, std::uint64_t seed, std::int64_t g) {
  const auto key = static_cast<std::uint64_t>(g);
  const int n = 50 + static_cast<int>(mix(seed, key) % 101);
  s.allocate(n);
  for (int f = 0; f < 7; ++f) {
    double* p = fieldOf(s, f);
    const std::uint64_t fieldKey = mix(seed ^ 0x5CF, key * 8 + f);
    for (int k = 0; k < n; ++k) p[k] = mixDouble(fieldKey, k);
  }
}

double stampOf(std::uint64_t seed, std::int64_t g, int record) {
  return mixDouble(seed ^ 0xF4A3E, static_cast<std::uint64_t>(g) * 4096 +
                                       static_cast<std::uint64_t>(record));
}

bool sameSegment(const pcxx::scf::Segment& a, const pcxx::scf::Segment& b) {
  if (a.numberOfParticles != b.numberOfParticles) return false;
  const size_t bytes =
      static_cast<size_t>(a.numberOfParticles) * sizeof(double);
  for (int f = 0; f < 7; ++f) {
    if (std::memcmp(fieldOf(a, f), fieldOf(b, f), bytes) != 0) return false;
  }
  return true;
}

std::uint64_t mismatches(
    const pcxx::coll::Collection<pcxx::scf::Segment>& got,
    const pcxx::coll::Collection<pcxx::scf::Segment>& want) {
  std::uint64_t bad = 0;
  for (std::int64_t j = 0; j < want.localCount(); ++j) {
    if (!sameSegment(got.local(j), want.local(j))) ++bad;
  }
  return bad;
}

Instruments::Instruments(const Pass& pass, pcxx::rt::Machine& m,
                         pcxx::pfs::Pfs& fs)
    : machine_(m) {
  if (!pass.traced) return;
  registry_ = std::make_unique<pcxx::obs::MetricsRegistry>(m.nprocs());
  pcxx::obs::Observer observer;
  observer.metrics = registry_.get();
  observer.timeMode = pcxx::obs::Observer::TimeMode::Wall;
  m.attachObserver(observer);
  trace::installPfsHooks(fs);
}

Instruments::~Instruments() {
  if (registry_ != nullptr) machine_.detachObserver();
}

void Instruments::snapshot(Result& res) {
  if (registry_ == nullptr || res.haveObs) return;
  res.obs = registry_->snapshot();
  res.obsJson = pcxx::obs::snapshotJson(res.obs);
  res.haveObs = true;
}

void Instruments::finish(Result& res) {
  if (registry_ == nullptr) return;
  machine_.detachObserver();
  snapshot(res);
  registry_.reset();
}

void enterNode(pcxx::rt::Node& node) {
  trace::setNode(node.id());
  trace::setOp(0);
}

void endTracedPhase(pcxx::rt::Node& node, pcxx::pfs::Pfs& fs,
                    const std::string& fsName, Instruments& inst,
                    Result& res) {
  node.barrier();
  if (node.id() == 0) {
    trace::setEnabled(false);
    inst.snapshot(res);
  }
  node.barrier();
  auto file = fs.open(node, fsName, pcxx::pfs::OpenMode::Read);
  if (node.id() == 0) {
    constexpr std::uint64_t kMax = 8u << 20;
    res.recordBytes.resize(
        static_cast<size_t>(std::min<std::uint64_t>(kMax, file->size())));
    res.recordBytes.resize(
        static_cast<size_t>(file->readAt(node, 0, res.recordBytes)));
  }
  node.barrier();
}

Pass roundOf(const Pass& pass, int rep) {
  Pass r = pass;
  const auto reps = static_cast<std::size_t>(pass.setupReps);
  r.seconds = pass.seconds / pass.setupReps;
  r.minSamples =
      (pass.minSamples * (static_cast<std::size_t>(rep) + 1) + reps - 1) / reps;
  return r;
}

bool another(pcxx::rt::Node& node, const Pass& pass, double deadline,
             const Samples& samples) {
  const bool go = node.id() == 0 && (now() < deadline ||
                                      samples.size() < pass.minSamples);
  return node.allreduceMax(go ? 1.0 : 0.0) > 0.0;
}

}  // namespace perfbench
