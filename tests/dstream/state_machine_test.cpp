// Enforcement of the Figure 2 d/stream state machines and the §3 usage
// constraints.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

TEST(OStreamState, WriteWithoutInsertThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    ds::OStream s(fs, &d, "f");
    s.write();  // no insert yet: not allowed by the state machine
  }),
               StateError);
}

TEST(OStreamState, InsertWriteInsertWriteLoops) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "f");
    for (int round = 0; round < 3; ++round) {
      s << g;
      s << g;  // several inserts per write are fine
      s.write();
    }
    EXPECT_EQ(s.recordsWritten(), 3u);
  });
}

TEST(OStreamState, CloseWithPendingInsertsThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "f");
    s << g;
    s.close();  // pending inserts never written
  }),
               StateError);
}

TEST(OStreamState, OperationsAfterCloseThrow) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(1);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "f");
    s << g;
    s.write();
    s.close();
    s << g;  // closed
  }),
               StateError);
}

TEST(OStreamState, DoubleCloseIsIdempotent) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(1);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "f");
    s << g;
    s.write();
    s.close();
    EXPECT_NO_THROW(s.close());
  });
}

TEST(OStreamState, MismatchedLayoutInsertThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Distribution d2(8, &P, coll::DistKind::Cyclic);
    coll::Collection<int> g(&d2);
    ds::OStream s(fs, &d, "f");
    s << g;  // interleave constraint: layouts must match the stream's
  }),
               UsageError);
}

TEST(OStreamState, MismatchedSizeInsertThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Distribution dSmall(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&dSmall);
    ds::OStream s(fs, &d, "f");
    s << g;
  }),
               UsageError);
}

// ---------------------------------------------------------------------------

void writeIntRecord(pfs::Pfs& fs, rt::Machine& m, const char* name) {
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    g.forEachLocal([](int& v, std::int64_t i) { v = static_cast<int>(i); });
    ds::OStream s(fs, &d, name);
    s << g;
    s.write();
  });
}

TEST(IStreamState, ExtractBeforeReadThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "f");
    s >> g;  // no read() yet
  }),
               StateError);
}

TEST(IStreamState, MoreExtractsThanInsertsThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "f");
    s.read();
    s >> g;
    s >> g;  // the record has one insert
  }),
               UsageError);
}

TEST(IStreamState, TypeMismatchThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);  // record holds ints
    ds::IStream s(fs, &d, "f");
    s.read();
    s >> g;
  }),
               UsageError);
}

TEST(IStreamState, KindMismatchThrows) {
  struct Cell {
    int n = 0;
  };
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  // Write a FIELD insert.
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<Cell> g(&d);
    ds::OStream s(fs, &d, "f");
    s << g.field(&Cell::n);
    s.write();
  });
  // Attempt a whole-collection extract of the matching scalar type.
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "f");
    s.read();
    s >> g;  // collection extract vs field insert
  }),
               UsageError);
}

TEST(IStreamState, ElementCountMismatchThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);  // 8 != 6
    ds::IStream s(fs, &d, "f");
    s.read();
  }),
               UsageError);
}

TEST(IStreamState, ReadPastLastRecordThrows) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream s(fs, &d, "f");
    s.read();
    s >> g;
    EXPECT_TRUE(s.atEnd());
    s.read();  // no second record
  }),
               FormatError);
}

TEST(IStreamState, ReReadWithoutExtractingAllIsAllowed) {
  // Figure 2 allows read -> read (discarding unextracted data).
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  writeIntRecord(fs, m, "f");
  writeIntRecord(fs, m, "f2");
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    // Two records in one file via append.
    ds::StreamOptions app;
    app.append = true;
    {
      ds::OStream s(fs, &d, "f", app);
      coll::Collection<int> h(&d);
      h.forEachLocal([](int& v, std::int64_t i) {
        v = static_cast<int>(1000 + i);
      });
      s << h;
      s.write();
    }
    ds::IStream s(fs, &d, "f");
    s.read();       // first record; never extracted
    s.read();       // second record
    s >> g;
    g.forEachLocal([](int& v, std::int64_t i) {
      EXPECT_EQ(v, static_cast<int>(1000 + i));
    });
  });
}

TEST(IStreamState, CurrentRecordRequiresRead) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(1);
  writeIntRecord(fs, m, "f");
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    ds::IStream s(fs, &d, "f");
    EXPECT_THROW(s.currentRecord(), UsageError);
    s.read();
    EXPECT_EQ(s.currentRecord().elementCount(), 6);
    EXPECT_EQ(s.currentRecord().inserts.size(), 1u);
  });
}

// One rule for a read() that throws, whatever the prefetch depth and
// wherever the read failed: the previous record is gone, hasRecord() is
// false, and an extraction is a StateError (Figure 2's read -> read drops
// the unextracted record on entry).
enum class ReadFailure { DataCrc, PastEnd };

class FailedReadTest
    : public ::testing::TestWithParam<std::tuple<ReadFailure, int>> {};

TEST_P(FailedReadTest, LeavesNoRecordToExtract) {
  const auto [failure, depth] = GetParam();
  constexpr int kRecords = 3;
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::StreamOptions so;
    so.checksumData = true;
    ds::OStream s(fs, &d, "f", so);
    for (int r = 0; r < kRecords; ++r) {
      s << g;
      s.write();
    }
  });
  // Records read cleanly before the failing read.
  int good = kRecords;
  if (failure == ReadFailure::DataCrc) {
    ByteBuffer bytes;
    test::runSpmd(1, [&](rt::Node& node) {
      auto f = fs.open(node, "f", pfs::OpenMode::Read);
      bytes.resize(static_cast<size_t>(f->size()));
      EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
    });
    pfs::MemStorage image;
    image.writeAt(0, bytes);
    const ds::FileInfo info = ds::inspectFile(image);
    ASSERT_EQ(info.records.size(), static_cast<size_t>(kRecords));
    fs.corruptByte("f", info.records[1].dataOffset, 0xEE);
    good = 1;
  }
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::StreamOptions so;
    so.aioPrefetchDepth = depth;
    ds::IStream s(fs, &d, "f", so);
    for (int r = 0; r < good; ++r) s.read();
    EXPECT_TRUE(s.hasRecord());
    EXPECT_THROW(s.read(), FormatError);
    EXPECT_FALSE(s.hasRecord());
    EXPECT_THROW(s >> g, StateError);
  });
}

std::string failedReadName(
    const ::testing::TestParamInfo<std::tuple<ReadFailure, int>>& p) {
  const bool crc = std::get<0>(p.param) == ReadFailure::DataCrc;
  return std::string(crc ? "DataCrc" : "PastEnd") + "AtDepth" +
         std::to_string(std::get<1>(p.param));
}

INSTANTIATE_TEST_SUITE_P(
    FailedRead, FailedReadTest,
    ::testing::Combine(::testing::Values(ReadFailure::DataCrc,
                                         ReadFailure::PastEnd),
                       ::testing::Values(0, 1)),
    failedReadName);

}  // namespace
