// Per-layer metrics of a traced run: span self times, obs counters, and
// direct timings of single library functions (lzCompress/lzDecompress,
// crc32, redist::buildPlan, rt::Node collectives) plus the paper's Manual
// Buffering reference.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric for one workload. `traced` is the traced pass,
/// `untraced` the untraced pass of the same run (for trace_overhead_pct).
Metrics layerMetrics(const Result& traced, const Result& untraced,
                     const std::vector<trace::Span>& spans);

/// The layer-exercise assertions of `workload` on the traced pass's obs
/// snapshot. Appends a line per violated assertion to `why`.
bool layerChecks(const std::string& workload, const Result& traced,
                 std::vector<std::string>& why);

}  // namespace perfbench
