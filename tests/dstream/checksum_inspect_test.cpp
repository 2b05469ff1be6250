// Tests for the data-checksum extension (StreamOptions::checksumData) and
// the file-inspection API behind dsdump.
#include <gtest/gtest.h>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "src/util/crc32.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

TEST(Crc32Combine, MatchesDirectCrcOverSplits) {
  ByteBuffer data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<Byte>(i * 13 + 7);
  }
  const std::uint32_t whole = crc32(data);
  for (size_t split : {size_t{0}, size_t{1}, size_t{357}, size_t{999},
                       size_t{1000}}) {
    const std::uint32_t a = crc32({data.data(), split});
    const std::uint32_t b = crc32({data.data() + split, data.size() - split});
    EXPECT_EQ(crc32Combine(a, b, data.size() - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32Combine, FoldsManyBlocksInOrder) {
  // The exact fold the streams perform across node blocks.
  ByteBuffer data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<Byte>(i ^ (i >> 3));
  }
  const size_t cuts[] = {0, 100, 101, 1500, 4000, 4096};
  std::uint32_t folded = 0;
  for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
    const size_t len = cuts[c + 1] - cuts[c];
    folded = crc32Combine(folded, crc32({data.data() + cuts[c], len}), len);
  }
  EXPECT_EQ(folded, crc32(data));
}

TEST(Crc32Combine, EmptyBlockIsIdentity) {
  EXPECT_EQ(crc32Combine(0xDEADBEEFu, 0, 0), 0xDEADBEEFu);
}

void writeChecksummed(pfs::Pfs& fs, rt::Machine& m, const char* name,
                      std::int64_t n) {
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    g.forEachLocal([](double& v, std::int64_t i) {
      v = static_cast<double>(i) * 1.5;
    });
    ds::StreamOptions so;
    so.checksumData = true;
    ds::OStream s(fs, &d, name, so);
    s << g;
    s.write();
  });
}

TEST(DataChecksum, RoundTripVerifies) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(4);
  writeChecksummed(fs, m, "ck", 32);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(32, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream s(fs, &d, "ck");
    s.read();
    EXPECT_TRUE(s.currentRecord().hasDataCrc());
    s >> g;
    g.forEachLocal([](double& v, std::int64_t i) {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(i) * 1.5);
    });
  });
}

TEST(DataChecksum, DetectsDataCorruption) {
  // Without the checksum, a flipped payload byte reads back silently wrong;
  // with it, the read throws. This is the whole point of the extension.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(4);
  writeChecksummed(fs, m, "ck2", 32);
  // Find the data section and flip a byte in it.
  rt::Machine probe(1);
  std::uint64_t dataOffset = 0;
  probe.run([&](rt::Node& node) {
    auto f = fs.open(node, "ck2", pfs::OpenMode::Read);
    Byte prefix[8];
    f->readAt(node, ds::kFileHeaderBytes, prefix);
    dataOffset = ds::kFileHeaderBytes +
                 ds::RecordHeader::encodedLength(prefix) + 8ull * 32;
  });
  fs.corruptByte("ck2", dataOffset + 17, 0xEE);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(32, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream s(fs, &d, "ck2");
    s.read();
  }),
               FormatError);
}

TEST(DataChecksum, CoexistsWithRedistributionAndMultipleRecords) {
  pfs::Pfs fs = test::memFs();
  {
    rt::Machine m(4);
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(20, &P, coll::DistKind::Cyclic);
      coll::Collection<double> g(&d);
      g.forEachLocal([](double& v, std::int64_t i) {
        v = static_cast<double>(i);
      });
      ds::StreamOptions so;
      so.checksumData = true;
      ds::OStream s(fs, &d, "ck3", so);
      s << g;
      s.write();
      s << g;
      s.write();  // second checksummed record
    });
  }
  // Read on a different node count (redistribution) — chunk boundaries
  // differ from writer blocks, the combine still matches.
  rt::Machine m(3);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(20, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream s(fs, &d, "ck3");
    s.read();
    s >> g;
    s.read();  // the trailer of record 0 must have been skipped correctly
    s >> g;
    EXPECT_TRUE(s.atEnd());
    g.forEachLocal([](double& v, std::int64_t i) {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(i));
    });
  });
}

TEST(Inspect, WalksRecordsAndSizes) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(10, &P, coll::DistKind::Cyclic);
    coll::Collection<int> g(&d);
    g.forEachLocal([](int& v, std::int64_t i) { v = static_cast<int>(i); });
    ds::OStream s(fs, &d, "insp");
    s << g;
    s.write();
    s << g;
    s << g;
    s.write();
  });

  // Pull the raw bytes into a MemStorage for inspection.
  pfs::MemStorage storage;
  rt::Machine probe(1);
  probe.run([&](rt::Node& node) {
    auto f = fs.open(node, "insp", pfs::OpenMode::Read);
    ByteBuffer all(static_cast<size_t>(f->size()));
    f->readAt(node, 0, all);
    storage.writeAt(0, all);
  });

  const ds::FileInfo info = ds::inspectFile(storage);
  ASSERT_EQ(info.records.size(), 2u);
  EXPECT_EQ(info.records[0].header.seq, 0u);
  EXPECT_EQ(info.records[1].header.seq, 1u);
  EXPECT_EQ(info.records[0].header.elementCount(), 10);
  EXPECT_EQ(info.records[0].header.inserts.size(), 1u);
  EXPECT_EQ(info.records[1].header.inserts.size(), 2u);
  EXPECT_EQ(info.records[0].minElementBytes(), 4u);
  EXPECT_EQ(info.records[0].maxElementBytes(), 4u);
  EXPECT_EQ(info.records[1].totalDataBytes(), 10u * 8u);

  // Element payloads are addressable: file order under CYCLIC on 2 nodes
  // is 0,2,4,6,8 then 1,3,5,7,9.
  const ByteBuffer e1 = ds::readElementData(storage, info.records[0], 1);
  int v;
  std::memcpy(&v, e1.data(), 4);
  EXPECT_EQ(v, 2);

  EXPECT_THROW(ds::readElementData(storage, info.records[0], 10),
               UsageError);

  const std::string report = ds::formatReport(info, /*verbose=*/true);
  EXPECT_NE(report.find("2 record(s)"), std::string::npos);
  EXPECT_NE(report.find("CYCLIC x 2 nodes"), std::string::npos);
  EXPECT_NE(report.find("insert 1: collection"), std::string::npos);
}

TEST(Inspect, RejectsInconsistentSizeTable) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(1);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "badsz");
    s << g;
    s.write();
  });
  pfs::MemStorage storage;
  rt::Machine probe(1);
  probe.run([&](rt::Node& node) {
    auto f = fs.open(node, "badsz", pfs::OpenMode::Read);
    ByteBuffer all(static_cast<size_t>(f->size()));
    f->readAt(node, 0, all);
    storage.writeAt(0, all);
  });
  // Corrupt one size-table entry (the header CRC does not cover it; the
  // dataBytes cross-check must catch the inconsistency).
  rt::Machine probe2(1);
  std::uint64_t tableOffset = 0;
  probe2.run([&](rt::Node&) {
    Byte prefix[8];
    storage.readAt(ds::kFileHeaderBytes, prefix);
    tableOffset =
        ds::kFileHeaderBytes + ds::RecordHeader::encodedLength(prefix);
  });
  const Byte big = 0x77;
  storage.writeAt(tableOffset + 2, {&big, 1});
  EXPECT_THROW(ds::inspectFile(storage), FormatError);
}

TEST(Inspect, EmptyFileAndAlienFileRejected) {
  pfs::MemStorage empty;
  EXPECT_THROW(ds::inspectFile(empty), FormatError);
  pfs::MemStorage alien;
  alien.writeAt(0, ByteBuffer(64, 0x42));
  EXPECT_THROW(ds::inspectFile(alien), FormatError);
}

TEST(Inspect, AutoHeaderPolicyTurnsParallelAt4096Elements) {
  // One record just below the Auto threshold, then one at it, appended to
  // the same file by a second stream over a larger collection.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  for (const std::int64_t n : {std::int64_t{4095}, std::int64_t{4096}}) {
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(n, &P, coll::DistKind::Block);
      coll::Collection<int> g(&d);
      g.forEachLocal([](int& v, std::int64_t i) { v = static_cast<int>(i); });
      ds::StreamOptions so;
      so.append = true;
      ds::OStream s(fs, &d, "auto", so);
      s << g;
      s.write();
    });
  }

  pfs::MemStorage storage;
  rt::Machine probe(1);
  probe.run([&](rt::Node& node) {
    auto f = fs.open(node, "auto", pfs::OpenMode::Read);
    ByteBuffer all(static_cast<size_t>(f->size()));
    f->readAt(node, 0, all);
    storage.writeAt(0, all);
  });

  const ds::FileInfo info = ds::inspectFile(storage);
  ASSERT_EQ(info.records.size(), 2u);
  EXPECT_EQ(info.records[0].header.elementCount(), 4095);
  EXPECT_EQ(info.records[0].header.mode, ds::HeaderMode::Gathered);
  EXPECT_EQ(info.records[1].header.elementCount(), 4096);
  EXPECT_EQ(info.records[1].header.mode, ds::HeaderMode::Parallel);
}

}  // namespace
