#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "common.h"

namespace perfbench::trace {
namespace {

struct ThreadBuf {
  int thread = 0;
  int node = -1;
  std::uint64_t op = 0;
  std::vector<Span> spans;
  std::vector<std::int64_t> stack;  ///< open Scope spans (local indices)
  std::int64_t openPfs = -1;        ///< pfs span between fault/observe hooks
};

std::atomic<bool> gEnabled{false};
std::mutex gMu;
std::vector<std::unique_ptr<ThreadBuf>> gBufs;  // guarded by gMu
thread_local ThreadBuf* tBuf = nullptr;

ThreadBuf& buf() {
  if (tBuf == nullptr) {
    std::lock_guard<std::mutex> lock(gMu);
    gBufs.push_back(std::make_unique<ThreadBuf>());
    tBuf = gBufs.back().get();
    tBuf->thread = static_cast<int>(gBufs.size()) - 1;
  }
  return *tBuf;
}

std::int64_t open(ThreadBuf& b, const char* name, const char* layer,
                  int node) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.node = node;
  s.thread = b.thread;
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  s.op = b.op;
  s.t0 = now();
  b.spans.push_back(s);
  return static_cast<std::int64_t>(b.spans.size()) - 1;
}

void closeSpan(ThreadBuf& b, std::int64_t index) {
  b.spans[static_cast<size_t>(index)].t1 = now();
}

}  // namespace

void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

void setNode(int node) { buf().node = node; }
void setOp(std::uint64_t op) { buf().op = op; }

Scope::Scope(const char* name, const char* layer) {
  if (!enabled()) return;
  ThreadBuf& b = buf();
  index_ = open(b, name, layer, b.node);
  b.stack.push_back(index_);
}

Scope::~Scope() {
  if (index_ < 0) return;
  ThreadBuf& b = buf();
  closeSpan(b, index_);
  if (!b.stack.empty() && b.stack.back() == index_) b.stack.pop_back();
}

void installPfsHooks(pcxx::pfs::Pfs& fs) {
  fs.setFaultHook([](const pcxx::pfs::OpContext& op) {
    if (!enabled()) return;
    ThreadBuf& b = buf();
    if (b.openPfs >= 0) closeSpan(b, b.openPfs);  // op ended without observe
    b.openPfs = open(b,
                     op.kind == pcxx::pfs::OpKind::Write ? "pfs.write"
                                                         : "pfs.read",
                     "pfs", op.nodeId);
  });
  fs.setObserveHook([](const pcxx::pfs::OpContext&) {
    if (!enabled()) return;
    ThreadBuf& b = buf();
    if (b.openPfs < 0) return;
    closeSpan(b, b.openPfs);
    b.openPfs = -1;
  });
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(gMu);
  std::vector<Span> out;
  for (const auto& b : gBufs) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span s : b->spans) {
      if (s.t1 < s.t0) s.t1 = s.t0;  // never closed (unwound op)
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
  }
  return out;
}

void clear() {
  std::lock_guard<std::mutex> lock(gMu);
  for (const auto& b : gBufs) {
    b->spans.clear();
    b->stack.clear();
    b->openPfs = -1;
  }
}

Totals totals(const std::vector<Span>& spans) {
  std::vector<double> childSum(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) childSum[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
  }
  Totals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.t1 - s.t0;
    t.byName[s.name] += dur;
    t.selfByLayer[s.layer] += dur - childSum[i];
  }
  return t;
}

void writeJson(const std::string& path, const std::vector<Span>& spans,
               const std::string& obsJson) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"schema\":\"perfbench-trace-v1\",\"time\":\"host seconds\","
         "\"fields\":[\"name\",\"layer\",\"node\",\"thread\",\"start\","
         "\"end\",\"parent\",\"op\"],\n\"spans\":[\n";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "[\"%s\",\"%s\",%d,%d,%.9f,%.9f,%lld,%llu]%s\n", s.name,
                  s.layer, s.node, s.thread, s.t0, s.t1,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "],\n\"obs\":" << (obsJson.empty() ? "{}" : obsJson) << "}\n";
}

}  // namespace perfbench::trace
