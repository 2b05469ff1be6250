// Tests for the SCF harness metrics collection and the pcxx-metrics-v1
// report: the acceptance bar is that per-node phase decompositions sum
// (exactly, since "other" is the remainder) to each node's total, and the
// emitted JSON is machine-loadable.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/obs/obs.h"
#include "src/scf/harness.h"
#include "src/scf/metrics_json.h"
#include "tests/common/json_check.h"

namespace {

using namespace pcxx;
using scf::BenchConfig;
using scf::BenchTableResult;
using scf::MethodMetrics;

BenchConfig tinyConfig() {
  BenchConfig cfg;
  cfg.title = "tiny";
  cfg.platform = "paragon";
  cfg.nprocs = 2;
  cfg.segmentCounts = {8, 16};
  cfg.particlesPerSegment = 10;
  cfg.collectMetrics = true;
  return cfg;
}

TEST(ScfMetrics, CollectsThreeMethodsPerCell) {
  const BenchTableResult result = scf::runBenchTable(tinyConfig());
  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& cell : result.cells) {
    ASSERT_EQ(cell.metrics.size(), 4u);
    EXPECT_EQ(cell.metrics[0].method, "Unbuffered I/O");
    EXPECT_EQ(cell.metrics[2].method, "pC++/streams");
    EXPECT_EQ(cell.metrics[3].method, "pC++/streams (async)");
    for (const MethodMetrics& m : cell.metrics) {
      EXPECT_GT(m.totalSeconds, 0.0);
      ASSERT_EQ(m.nodeSeconds.size(), 2u);
      ASSERT_EQ(m.snapshot.perNode.size(), 2u);
    }
  }
}

TEST(ScfMetrics, PhasesSumToPerNodeTotals) {
  const BenchTableResult result = scf::runBenchTable(tinyConfig());
  for (const auto& cell : result.cells) {
    for (const MethodMetrics& m : cell.metrics) {
      double nodeSum = 0.0;
      for (size_t i = 0; i < m.snapshot.perNode.size(); ++i) {
        const double total = m.nodeSeconds[i];
        const scf::PhaseBreakdown p =
            scf::phaseBreakdown(m.snapshot.perNode[i], total);
        EXPECT_NEAR(p.sum(), total, 1e-9 + 1e-9 * total)
            << m.method << " node " << i;
        // The disjoint phases must not overshoot the node's total.
        EXPECT_GE(p.other, -1e-9) << m.method << " node " << i;
        nodeSum += total;
      }
      // Each node's clock ends at most at the bench's reported total
      // (the max over nodes).
      EXPECT_LE(nodeSum, m.totalSeconds * 2 + 1e-9);
    }
  }
}

TEST(ScfMetrics, StreamsCellShowsTheExpectedActivity) {
  BenchConfig cfg = tinyConfig();
  cfg.sortedRead = true;  // force the redistribution path on input
  const BenchTableResult result = scf::runBenchTable(cfg);
  const MethodMetrics& streams = result.cells[0].metrics[2];
  const obs::NodeSnapshot& merged = streams.snapshot.merged;
  EXPECT_EQ(merged.counter(obs::Counter::DsWrites), 2u);
  EXPECT_EQ(merged.counter(obs::Counter::DsReads), 2u);
  EXPECT_GT(merged.counter(obs::Counter::DsBufferFillBytes), 0u);
  EXPECT_GT(merged.counter(obs::Counter::PfsWriteBytes), 0u);
  EXPECT_GT(merged.timer(obs::Timer::PfsWriteSeconds), 0.0);
  EXPECT_GT(merged.timer(obs::Timer::ScfOutputSeconds), 0.0);
  EXPECT_GT(merged.timer(obs::Timer::ScfInputSeconds), 0.0);
  // The unbuffered method never touches the d/stream layer.
  const obs::NodeSnapshot& unbuf = result.cells[0].metrics[0].snapshot.merged;
  EXPECT_EQ(unbuf.counter(obs::Counter::DsWrites), 0u);
  EXPECT_GT(unbuf.counter(obs::Counter::PfsWriteOps), 0u);
}

TEST(ScfMetrics, ReportJsonIsValidAndCarriesTheSchema) {
  const BenchTableResult result = scf::runBenchTable(tinyConfig());
  const std::string json = scf::metricsReportJson({result});
  EXPECT_TRUE(test::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"pcxx-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"insert_buffer_fill\""), std::string::npos);
  EXPECT_NE(json.find("\"redistribution\""), std::string::npos);
  EXPECT_NE(json.find("\"per_node\""), std::string::npos);
  // Straggler attribution rides along in every per_node entry.
  EXPECT_NE(json.find("\"sync_wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"straggler_ops\""), std::string::npos);
}

TEST(ScfMetrics, WaitCategoriesAreDisjointAndBounded) {
  // sync_wait (collective skew, via VirtualClock::syncTo) and the aio
  // stall/drain buckets (local pipeline waits, via stallTo) are charged to
  // separate clock accounts, so per node they can never sum past the
  // node's own elapsed time. A double-charge bug (e.g. a stall recorded as
  // sync wait AND as aio stall) shows up here as an overshoot.
  const BenchTableResult result = scf::runBenchTable(tinyConfig());
  for (const auto& cell : result.cells) {
    for (const MethodMetrics& m : cell.metrics) {
      std::uint64_t stragglerOps = 0;
      for (size_t i = 0; i < m.snapshot.perNode.size(); ++i) {
        const obs::NodeSnapshot& node = m.snapshot.perNode[i];
        const double waits =
            node.timer(obs::Timer::RtSyncWaitSeconds) +
            node.timer(obs::Timer::AioStallSeconds) +
            node.timer(obs::Timer::AioDrainSeconds);
        EXPECT_LE(waits, m.nodeSeconds[i] + 1e-9)
            << m.method << " node " << i
            << ": wait categories overlap (double-charged time)";
        stragglerOps += node.counter(obs::Counter::RtCollStragglerOps);
      }
      // Exactly one node is blamed per costed collective, so the blame
      // total can never exceed the collective count every node shares.
      const std::uint64_t collectives =
          m.snapshot.perNode[0].counter(obs::Counter::RtCollectives);
      if (collectives > 0) {
        EXPECT_GT(stragglerOps, 0u) << m.method;
        EXPECT_LE(stragglerOps, collectives) << m.method;
      }
    }
  }
}

// The bench works identically with collection disabled; it just reports
// no metrics.
TEST(ScfMetrics, DisabledCollectionLeavesCellsEmpty) {
  BenchConfig cfg = tinyConfig();
  cfg.collectMetrics = false;
  cfg.segmentCounts = {8};
  const BenchTableResult result = scf::runBenchTable(cfg);
  EXPECT_TRUE(result.cells[0].metrics.empty());
  EXPECT_GT(result.cells[0].streams, 0.0);
}

}  // namespace
