// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions. Nothing here reaches inside the library: the
// pfs spans come from the public fault hook (start) and observe hook (end).
//
// Each span has a name, the layer it belongs to, start/end host seconds,
// its parent (the enclosing span on the same thread), and the driver's op
// id, which is the same on every node for one collective record op.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pfs/parallel_file.h"

namespace perfbench::trace {

struct Span {
  const char* name = "";
  const char* layer = "";
  int node = -1;
  int thread = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::int64_t parent = -1;  ///< global index after collect(), -1 = root
  std::uint64_t op = 0;
};

/// Turn recording on or off for every thread.
void setEnabled(bool on);
bool enabled();

/// Bind the calling thread to a node id and set its current op id.
void setNode(int node);
void setOp(std::uint64_t op);

/// RAII span around one public call. A no-op while recording is off.
class Scope {
 public:
  Scope(const char* name, const char* layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Install fault/observe hooks on `fs` that time every storage op as a
/// "pfs.read"/"pfs.write" span, on node threads and aio threads alike.
void installPfsHooks(pcxx::pfs::Pfs& fs);

/// All spans recorded so far, parents resolved to global indices.
std::vector<Span> collect();
/// Drop every recorded span.
void clear();

/// Per-name and per-layer totals over a span set.
struct Totals {
  std::map<std::string, double> byName;     ///< summed duration
  std::map<std::string, double> selfByLayer;///< summed self time
};
Totals totals(const std::vector<Span>& spans);

/// Write spans plus an obs snapshot (JSON text) to `path`.
void writeJson(const std::string& path, const std::vector<Span>& spans,
               const std::string& obsJson);

}  // namespace perfbench::trace
