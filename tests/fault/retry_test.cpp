// RetryPolicy: bounded retries with modeled backoff for transient storage
// faults — success after transients, prefix resumption after short writes,
// give-up semantics, crash fatality, and the no-fault golden guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/pfs/fault_plan.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

TEST(RetryPolicy, BackoffIsDeterministicAndBounded) {
  pfs::RetryPolicy rp;
  rp.backoffBase = 1e-3;
  rp.backoffFactor = 2.0;
  rp.backoffMax = 0.1;
  rp.jitter = 0.2;
  rp.seed = 99;
  for (int k = 1; k <= 12; ++k) {
    const double b1 = rp.backoffFor(k, 42, 1);
    const double b2 = rp.backoffFor(k, 42, 1);
    EXPECT_DOUBLE_EQ(b1, b2);  // pure function of (policy, k, op, node)
    EXPECT_GE(b1, rp.backoffBase * (1.0 - rp.jitter));
    EXPECT_LE(b1, rp.backoffMax * (1.0 + rp.jitter));
  }
  // Different ops jitter differently (the whole point of jitter).
  EXPECT_NE(rp.backoffFor(1, 42, 1), rp.backoffFor(1, 43, 1));
}

// Regression: the cap used to be applied BEFORE jitter, so once the
// exponential curve saturated, positive jitter pushed the returned delay up
// to backoffMax * (1 + jitter) — the documented hard bound was violated on
// every deep retry. The cap is a bound on the RETURNED value.
TEST(RetryPolicy, BackoffNeverExceedsMaxForAnySeedOrAttempt) {
  for (const std::uint64_t seed : {0ull, 1ull, 99ull, 0xDEADBEEFull}) {
    for (const double jitter : {0.0, 0.2, 0.5, 0.99}) {
      pfs::RetryPolicy rp;
      rp.backoffBase = 1e-3;
      rp.backoffFactor = 3.0;
      rp.backoffMax = 0.05;
      rp.jitter = jitter;
      rp.seed = seed;
      for (int attempt = 1; attempt <= 20; ++attempt) {
        for (std::uint64_t op = 0; op < 16; ++op) {
          for (int node = 0; node < 3; ++node) {
            const double b = rp.backoffFor(attempt, op, node);
            EXPECT_LE(b, rp.backoffMax)
                << "seed " << seed << " jitter " << jitter << " attempt "
                << attempt << " op " << op << " node " << node;
            EXPECT_GE(b, 0.0);
          }
        }
      }
    }
  }
}

// The one pfs retry driver serves node ops, which charge backoff to the
// node's VirtualClock, and background ops (the pcxx::aio threads' entry
// points), which charge it to a BgIoStats. Each case below is one function
// run through both entry points: as RetryPolicy.<case> on the node path and
// as RetryPolicyBackground.<case> on the background path.
enum class IoPath { Node, Background };

struct PathIo {
  IoPath path;
  pfs::BgIoStats bg;  ///< background-path accounting

  bool background() const { return path == IoPath::Background; }

  void write(pfs::ParallelFile& f, rt::Node& node, std::uint64_t offset,
             std::span<const Byte> data) {
    if (background()) {
      f.writeAtBackground(node.id(), offset, data, bg);
    } else {
      f.writeAt(node, offset, data);
    }
  }

  std::uint64_t read(pfs::ParallelFile& f, rt::Node& node,
                     std::uint64_t offset, std::span<Byte> out) {
    return background() ? f.readAtBackground(node.id(), offset, out, bg)
                        : f.readAt(node, offset, out);
  }
};

void transientWriteFailuresRetriedToSuccess(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  rp.backoffBase = 0.25;
  rp.backoffFactor = 2.0;
  rp.backoffMax = 10.0;
  rp.jitter = 0.0;  // exact backoff arithmetic below
  fs.setRetryPolicy(rp);

  std::atomic<int> failuresLeft{2};
  std::mutex mu;
  std::vector<std::uint64_t> failedOps;
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind != pfs::OpKind::Write) return;
    int left = failuresLeft.load();
    while (left > 0 && !failuresLeft.compare_exchange_weak(left, left - 1)) {
    }
    if (left > 0) {
      std::lock_guard<std::mutex> lock(mu);
      failedOps.push_back(op.opIndex);
      throw IoError("injected transient");
    }
  });

  double clockAfter = 0.0;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    const ByteBuffer data(64, Byte{0x5A});
    io.write(*f, node, 0, data);  // succeeds on the third attempt
    ByteBuffer back(64);
    EXPECT_EQ(io.read(*f, node, 0, back), 64u);
    EXPECT_EQ(back, data);
    clockAfter = node.clock().now();
  });
  fs.setFaultHook(nullptr);

  // Two failed attempts => two backoffs: retry 1 waits base, retry 2 waits
  // base*factor (no jitter, no perf model, so the clock holds exactly the
  // backoff on the node path; background ops leave the clock alone).
  ASSERT_EQ(failedOps.size(), 2u);
  if (io.background()) {
    EXPECT_DOUBLE_EQ(clockAfter, 0.0);
    EXPECT_EQ(io.bg.retries, 2u);
    EXPECT_EQ(io.bg.giveUps, 0u);
    EXPECT_DOUBLE_EQ(io.bg.backoffSeconds, 0.25 + 0.5);
  } else {
    EXPECT_DOUBLE_EQ(clockAfter, 0.25 + 0.5);
  }
}

TEST(RetryPolicy, TransientWriteFailuresRetriedToSuccess) {
  transientWriteFailuresRetriedToSuccess(IoPath::Node);
}
TEST(RetryPolicyBackground, TransientWriteFailuresRetriedToSuccess) {
  transientWriteFailuresRetriedToSuccess(IoPath::Background);
}

TEST(RetryPolicy, RetriesAndBackoffShowUpInMetrics) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 4;
  rp.backoffBase = 0.125;
  rp.jitter = 0.0;
  fs.setRetryPolicy(rp);

  std::atomic<int> failuresLeft{1};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write && failuresLeft.fetch_sub(1) > 0) {
      throw IoError("injected transient");
    }
  });

  rt::Machine m(1);
  obs::MetricsRegistry reg(1);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    f->writeAt(node, 0, ByteBuffer(16, Byte{1}));
  });
  m.detachObserver();
  fs.setFaultHook(nullptr);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(obs::Counter::PfsRetries), 1u);
  EXPECT_EQ(snap.merged.counter(obs::Counter::PfsGiveUps), 0u);
  EXPECT_DOUBLE_EQ(snap.merged.timer(obs::Timer::PfsBackoffSeconds), 0.125);
}

void shortWriteResumesFromCompletedPrefix(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);

  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    ByteBuffer data(64);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<Byte>(i);

    pfs::FaultPlan plan;
    plan.shortCompletionAtOp(fs.opCount(), 24);
    pfs::OpRecorder rec;
    fs.setFaultHook([&](const pfs::OpContext& op) {
      rec.record(op);
      plan.apply(op);
    });
    io.write(*f, node, 0, data);
    fs.setFaultHook(nullptr);

    // Attempt 1 asked for all 64 at offset 0; the retry asked only for the
    // remaining 40 at offset 24 — the durable prefix is not re-sent.
    const auto ops = rec.ops();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].offset, 0u);
    EXPECT_EQ(ops[0].bytes, 64u);
    EXPECT_EQ(ops[1].offset, 24u);
    EXPECT_EQ(ops[1].bytes, 40u);

    ByteBuffer back(64);
    EXPECT_EQ(io.read(*f, node, 0, back), 64u);
    EXPECT_EQ(back, data);

    // One retry, charged on the path's own clock.
    const double backoff = rp.backoffFor(1, ops[0].opIndex, node.id());
    if (io.background()) {
      EXPECT_DOUBLE_EQ(node.clock().now(), 0.0);
      EXPECT_EQ(io.bg.retries, 1u);
      EXPECT_EQ(io.bg.giveUps, 0u);
      EXPECT_DOUBLE_EQ(io.bg.backoffSeconds, backoff);
    } else {
      EXPECT_DOUBLE_EQ(node.clock().now(), backoff);
    }
  });
}

TEST(RetryPolicy, ShortWriteResumesFromCompletedPrefix) {
  shortWriteResumesFromCompletedPrefix(IoPath::Node);
}
TEST(RetryPolicyBackground, ShortWriteResumesFromCompletedPrefix) {
  shortWriteResumesFromCompletedPrefix(IoPath::Background);
}

void exhaustedAttemptsRethrowTheOriginalError(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 3;
  rp.backoffBase = 1e-6;
  fs.setRetryPolicy(rp);

  std::atomic<int> fires{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write) {
      fires.fetch_add(1);
      throw IoError("device on fire");
    }
  });
  EXPECT_THROW(
      test::runSpmd(1,
                    [&](rt::Node& node) {
                      auto f =
                          fs.open(node, "t.bin", pfs::OpenMode::Create);
                      try {
                        io.write(*f, node, 0, ByteBuffer(8, Byte{1}));
                      } catch (const IoError& e) {
                        // The give-up rethrows the hook's error verbatim
                        // (no re-wrapping, no doubled prefix).
                        EXPECT_STREQ(e.what(), "io error: device on fire");
                        throw;
                      }
                    }),
      IoError);
  fs.setFaultHook(nullptr);
  EXPECT_EQ(fires.load(), 3);  // maxAttempts, no more
  if (io.background()) {
    EXPECT_EQ(io.bg.retries, 2u);
    EXPECT_EQ(io.bg.giveUps, 1u);
    EXPECT_GT(io.bg.backoffSeconds, 0.0);
  }
}

TEST(RetryPolicy, ExhaustedAttemptsRethrowTheOriginalError) {
  exhaustedAttemptsRethrowTheOriginalError(IoPath::Node);
}
TEST(RetryPolicyBackground, ExhaustedAttemptsRethrowTheOriginalError) {
  exhaustedAttemptsRethrowTheOriginalError(IoPath::Background);
}

void deadlineBoundsTheAttempts(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 100;
  rp.backoffBase = 1.0;
  rp.backoffFactor = 1.0;
  rp.backoffMax = 1.0;
  rp.jitter = 0.0;
  rp.opDeadlineSeconds = 1.5;  // room for two 1 s backoffs, not three
  fs.setRetryPolicy(rp);

  std::atomic<int> fires{0};
  fs.setFaultHook([&](const pfs::OpContext& op) {
    if (op.kind == pfs::OpKind::Write) {
      fires.fetch_add(1);
      throw IoError("still broken");
    }
  });
  double clockAfter = 0.0;
  EXPECT_THROW(test::runSpmd(1,
                             [&](rt::Node& node) {
                               auto f = fs.open(node, "t.bin",
                                                pfs::OpenMode::Create);
                               try {
                                 io.write(*f, node, 0, ByteBuffer(8, Byte{1}));
                               } catch (const IoError&) {
                                 clockAfter = node.clock().now();
                                 throw;
                               }
                             }),
               IoError);
  fs.setFaultHook(nullptr);
  // Attempts at t = 0 and t = 1 back off; the attempt at t = 2 finds the
  // deadline spent and gives up instead of backing off again.
  EXPECT_EQ(fires.load(), 3);
  if (io.background()) {
    EXPECT_DOUBLE_EQ(clockAfter, 0.0);
    EXPECT_EQ(io.bg.retries, 2u);
    EXPECT_EQ(io.bg.giveUps, 1u);
    EXPECT_DOUBLE_EQ(io.bg.backoffSeconds, 2.0);
  } else {
    EXPECT_DOUBLE_EQ(clockAfter, 2.0);
  }
}

TEST(RetryPolicy, DeadlineBoundsTheAttempts) {
  deadlineBoundsTheAttempts(IoPath::Node);
}
TEST(RetryPolicyBackground, DeadlineBoundsTheAttempts) {
  deadlineBoundsTheAttempts(IoPath::Background);
}

void crashIsFatalAndNeverRetried(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 50;
  fs.setRetryPolicy(rp);

  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    io.write(*f, node, 0, ByteBuffer(64, Byte{0xEE}));

    pfs::FaultPlan plan;
    plan.crashAtOp(fs.opCount(), 16);
    fs.setFaultHook(plan.hook());
    bool crashed = false;
    try {
      io.write(*f, node, 0, ByteBuffer(64, Byte{0x11}));
    } catch (const pfs::CrashInjected&) {
      crashed = true;
    }
    fs.setFaultHook(nullptr);
    EXPECT_TRUE(crashed);
    EXPECT_EQ(plan.firedCount(), 1u);  // one attempt, despite maxAttempts=50
    EXPECT_EQ(io.bg.retries, 0u);
    EXPECT_EQ(io.bg.giveUps, 0u);

    // Exactly the durable prefix was applied before the crash.
    ByteBuffer back(64);
    EXPECT_EQ(io.read(*f, node, 0, back), 64u);
    for (size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back[i], i < 16 ? Byte{0x11} : Byte{0xEE}) << i;
    }
  });
}

TEST(RetryPolicy, CrashIsFatalAndNeverRetried) {
  crashIsFatalAndNeverRetried(IoPath::Node);
}
TEST(RetryPolicyBackground, CrashIsFatalAndNeverRetried) {
  crashIsFatalAndNeverRetried(IoPath::Background);
}

void endOfFileShortReadIsNotAFault(IoPath path) {
  PathIo io{path, {}};
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 5;
  fs.setRetryPolicy(rp);
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "t.bin", pfs::OpenMode::Create);
    io.write(*f, node, 0, ByteBuffer(10, Byte{7}));
    const std::uint64_t opsBefore = fs.opCount();
    ByteBuffer out(64);
    EXPECT_EQ(io.read(*f, node, 0, out), 10u);  // EOF, not an error
    EXPECT_EQ(fs.opCount() - opsBefore, 1u);  // and not retried
    EXPECT_DOUBLE_EQ(node.clock().now(), 0.0);  // no backoff charged
    EXPECT_EQ(io.bg.retries, 0u);
    EXPECT_DOUBLE_EQ(io.bg.backoffSeconds, 0.0);
    if (io.background()) {
      EXPECT_EQ(io.bg.readOps, 1u);
      EXPECT_EQ(io.bg.bytesRead, 10u);
    }
  });
}

TEST(RetryPolicy, EndOfFileShortReadIsNotAFault) {
  endOfFileShortReadIsNotAFault(IoPath::Node);
}
TEST(RetryPolicyBackground, EndOfFileShortReadIsNotAFault) {
  endOfFileShortReadIsNotAFault(IoPath::Background);
}

// The golden guarantee: with no faults injected, installing a retry policy
// changes nothing — the stream writes byte-identical files.
TEST(RetryPolicy, NoFaultsMeansByteIdenticalStreamFiles) {
  auto writeFile = [](pfs::Pfs& fs) {
    test::runSpmd(2, [&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(10, &P, coll::DistKind::Block);
      coll::Collection<double> g(&d);
      g.forEachLocal([](double& v, std::int64_t i) {
        v = static_cast<double>(i) * 1.5;
      });
      ds::OStream s(fs, &d, "golden.ds");
      s << g;
      s.write();
    });
  };
  auto fileBytes = [](pfs::Pfs& fs) {
    ByteBuffer bytes;
    test::runSpmd(1, [&](rt::Node& node) {
      auto f = fs.open(node, "golden.ds", pfs::OpenMode::Read);
      bytes.resize(static_cast<size_t>(f->size()));
      EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
    });
    return bytes;
  };

  pfs::Pfs plain = test::memFs();
  writeFile(plain);

  pfs::Pfs retried = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 7;
  rp.backoffBase = 0.5;
  retried.setRetryPolicy(rp);
  writeFile(retried);

  EXPECT_EQ(fileBytes(plain), fileBytes(retried));
}

TEST(RetryPolicy, RejectsZeroAttempts) {
  pfs::Pfs fs = test::memFs();
  pfs::RetryPolicy rp;
  rp.maxAttempts = 0;
  EXPECT_THROW(fs.setRetryPolicy(rp), UsageError);

  // Policies whose backoff or deadline could be negative or non-finite:
  // jitter 1.5 made some backoffFor() draws negative, which the node clock
  // dropped but the metrics and the background deadline clock still
  // counted.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double pfs::RetryPolicy::*, double>> bad = {
      {&pfs::RetryPolicy::backoffBase, -0.5},
      {&pfs::RetryPolicy::backoffBase, kNan},
      {&pfs::RetryPolicy::backoffBase, kInf},
      {&pfs::RetryPolicy::backoffFactor, -1.0},
      {&pfs::RetryPolicy::backoffFactor, kNan},
      {&pfs::RetryPolicy::backoffFactor, kInf},
      {&pfs::RetryPolicy::backoffMax, -1.0},
      {&pfs::RetryPolicy::backoffMax, kInf},
      {&pfs::RetryPolicy::jitter, 1.5},
      {&pfs::RetryPolicy::jitter, -0.1},
      {&pfs::RetryPolicy::jitter, kNan},
      {&pfs::RetryPolicy::opDeadlineSeconds, -1.0},
      {&pfs::RetryPolicy::opDeadlineSeconds, kNan},
      {&pfs::RetryPolicy::opDeadlineSeconds, kInf},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    pfs::RetryPolicy p;
    p.*bad[i].first = bad[i].second;
    EXPECT_THROW(fs.setRetryPolicy(p), UsageError) << "case " << i;
  }

  // The closed ends of each range stay legal.
  pfs::RetryPolicy edge;
  edge.backoffBase = 0.0;
  edge.backoffFactor = 0.0;
  edge.backoffMax = 0.0;
  edge.jitter = 1.0;
  edge.opDeadlineSeconds = 0.0;
  EXPECT_NO_THROW(fs.setRetryPolicy(edge));
  edge.jitter = 0.0;
  EXPECT_NO_THROW(fs.setRetryPolicy(edge));
}

}  // namespace
