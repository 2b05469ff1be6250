// Unit tests for pcxx::obs: histograms, per-node metrics, registry
// snapshots/merges, the generic JSON dump, and the runtime integration
// (counters actually tick when an observer is attached to a Machine).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/runtime/machine.h"
#include "src/util/error.h"
#include "tests/common/json_check.h"

namespace {

using namespace pcxx;
using obs::Counter;
using obs::Hist;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::Timer;

TEST(Histogram, BucketsByLog2) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(1024);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(3), 1u);  // [4, 8)
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2048)
  EXPECT_EQ(h.total(), 6u);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, BucketLowIsInclusiveLowerBound) {
  EXPECT_EQ(Histogram::bucketLow(0), 0u);
  EXPECT_EQ(Histogram::bucketLow(1), 1u);
  EXPECT_EQ(Histogram::bucketLow(2), 2u);
  EXPECT_EQ(Histogram::bucketLow(3), 4u);
  EXPECT_EQ(Histogram::bucketLow(11), 1024u);
}

TEST(MetricsRegistry, SnapshotCopiesAndMerges) {
  MetricsRegistry reg(2);
  reg.node(0).add(Counter::DsInserts, 3);
  reg.node(1).add(Counter::DsInserts, 4);
  reg.node(0).addSeconds(Timer::DsWriteSeconds, 1.5);
  reg.node(1).addSeconds(Timer::DsWriteSeconds, 2.5);
  reg.node(0).record(Hist::PfsWriteSize, 100);
  reg.node(1).record(Hist::PfsWriteSize, 100);
  reg.node(0).addPeerBytes(1, 64);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.perNode.size(), 2u);
  EXPECT_EQ(snap.perNode[0].counter(Counter::DsInserts), 3u);
  EXPECT_EQ(snap.perNode[1].counter(Counter::DsInserts), 4u);
  EXPECT_EQ(snap.merged.counter(Counter::DsInserts), 7u);
  EXPECT_DOUBLE_EQ(snap.merged.timer(Timer::DsWriteSeconds), 4.0);
  // 100 lands in bucket [64, 128) = bucket 7.
  EXPECT_EQ(snap.merged.hists[static_cast<size_t>(Hist::PfsWriteSize)][7],
            2u);
  ASSERT_EQ(snap.perNode[0].peerBytes.size(), 2u);
  EXPECT_EQ(snap.perNode[0].peerBytes[1], 64u);
  EXPECT_EQ(snap.merged.peerBytes[1], 64u);
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry reg(1);
  reg.node(0).add(Counter::PfsReadOps, 9);
  reg.node(0).addSeconds(Timer::PfsReadSeconds, 2.0);
  reg.node(0).record(Hist::PfsReadSize, 8);
  reg.node(0).addPeerBytes(0, 1);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(Counter::PfsReadOps), 0u);
  EXPECT_DOUBLE_EQ(snap.merged.timer(Timer::PfsReadSeconds), 0.0);
  EXPECT_EQ(snap.merged.hists[static_cast<size_t>(Hist::PfsReadSize)][4],
            0u);
  EXPECT_EQ(snap.merged.peerBytes[0], 0u);
}

TEST(MetricsJson, SnapshotJsonIsValidAndNamesNonzeroMetrics) {
  MetricsRegistry reg(2);
  reg.node(0).add(Counter::DsWrites, 1);
  reg.node(1).addSeconds(Timer::DsWriteSeconds, 0.25);
  const std::string json = obs::snapshotJson(reg.snapshot());
  EXPECT_TRUE(test::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("ds.writes"), std::string::npos) << json;
  EXPECT_NE(json.find("ds.write_seconds"), std::string::npos) << json;
  // Zero metrics stay out of the dump.
  EXPECT_EQ(json.find("pfs.read_ops"), std::string::npos) << json;
}

TEST(MetricNames, AreUniqueAndNonNull) {
  std::vector<std::string> names;
  for (int i = 0; i < obs::kNumCounters; ++i) {
    names.emplace_back(obs::counterName(static_cast<Counter>(i)));
  }
  for (int i = 0; i < obs::kNumTimers; ++i) {
    names.emplace_back(obs::timerName(static_cast<Timer>(i)));
  }
  for (int i = 0; i < obs::kNumHists; ++i) {
    names.emplace_back(obs::histName(static_cast<Hist>(i)));
  }
  for (const auto& n : names) EXPECT_FALSE(n.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(ObsMacros, TolerateNullObserver) {
  obs::NodeObs* obs = nullptr;
  PCXX_OBS_COUNT(obs, DsInserts, 1);
  PCXX_OBS_SECONDS(obs, DsWriteSeconds, 1.0);
  PCXX_OBS_HIST(obs, PfsReadSize, 8);
  PCXX_OBS_PEER_BYTES(obs, 0, 8);
  PCXX_OBS_TRACE_COUNTER(obs, "x", 1);
  { PCXX_OBS_PHASE(obs, "x", DsWriteSeconds); }
  { PCXX_OBS_SPAN(obs, "x"); }
  SUCCEED();
}

TEST(MachineObserver, CountsCollectivesAndMessages) {
  rt::Machine m(2);
  MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  m.run([](rt::Node& node) {
    node.barrier();
    node.barrier();
    if (node.id() == 0) {
      node.send(1, 0, ByteBuffer(16));
    } else {
      (void)node.recv(0, 0);
    }
  });
  m.detachObserver();
  const auto snap = reg.snapshot();
  // Two explicit barriers per node (plus whatever recv/send sync adds).
  EXPECT_GE(snap.perNode[0].counter(Counter::RtCollectives), 2u);
  EXPECT_EQ(snap.perNode[0].counter(Counter::RtMessagesSent), 1u);
  EXPECT_EQ(snap.perNode[0].counter(Counter::RtMessageBytes), 16u);
  EXPECT_EQ(snap.perNode[1].counter(Counter::RtMessagesSent), 0u);

  // Detached: further runs leave the registry untouched.
  m.run([](rt::Node& node) { node.barrier(); });
  EXPECT_EQ(reg.snapshot().perNode[0].counter(Counter::RtMessagesSent), 1u);
}

TEST(MachineObserver, AttachRequiresEnoughRegistrySlots) {
  rt::Machine m(4);
  MetricsRegistry small(2);
  obs::Observer observer;
  observer.metrics = &small;
  EXPECT_THROW(m.attachObserver(observer), UsageError);
}

}  // namespace
