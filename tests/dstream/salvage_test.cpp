// Torn-write salvage: IStream's salvage mode skips damaged records and
// torn tails while returning every intact record byte-identical, and the
// offline scanFile() reports the same damage without a machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr std::int64_t kElems = 9;
constexpr int kNodes = 3;

void fill(coll::Collection<double>& c, int record) {
  c.forEachLocal([record](double& v, std::int64_t g) {
    v = static_cast<double>(record * 100 + g);
  });
}

std::int64_t countWrong(coll::Collection<double>& c, int record) {
  std::int64_t bad = 0;
  c.forEachLocal([&](double& v, std::int64_t g) {
    if (v != static_cast<double>(record * 100 + g)) ++bad;
  });
  return bad;
}

/// The bytes of "f.ds".
ByteBuffer fileBytes(pfs::Pfs& fs) {
  ByteBuffer bytes;
  test::runSpmd(1, [&](rt::Node& node) {
    auto f = fs.open(node, "f.ds", pfs::OpenMode::Read);
    bytes.resize(static_cast<size_t>(f->size()));
    EXPECT_EQ(f->readAt(node, 0, bytes), bytes.size());
  });
  return bytes;
}

/// Write `records` checksummed records to "f.ds" on `fs`; returns the
/// record boundaries [start, end) discovered by an offline inspection.
std::vector<std::pair<std::uint64_t, std::uint64_t>> writeRecords(
    pfs::Pfs& fs, int records) {
  test::runSpmd(kNodes, [&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.checksumData = true;
    ds::OStream s(fs, &d, "f.ds", so);
    for (int r = 0; r < records; ++r) {
      fill(g, r);
      s << g;
      s.write();
    }
  });
  // Copy the bytes out and inspect offline for the record boundaries.
  const ByteBuffer bytes = fileBytes(fs);
  pfs::MemStorage image;
  image.writeAt(0, bytes);
  const ds::FileInfo info = ds::inspectFile(image);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (size_t i = 0; i < info.records.size(); ++i) {
    const std::uint64_t start = info.records[i].offset;
    const std::uint64_t end = i + 1 < info.records.size()
                                  ? info.records[i + 1].offset
                                  : bytes.size();
    spans.emplace_back(start, end);
  }
  return spans;
}

/// Salvage-read "f.ds" at `prefetchDepth`: returns which of `records`
/// indices were recovered with correct contents, plus the stream's report.
std::pair<std::vector<int>, ds::SalvageReport> salvageRead(
    pfs::Pfs& fs, int records, int prefetchDepth = 0) {
  std::vector<int> recovered;
  ds::SalvageReport report;
  test::runSpmd(kNodes, [&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.salvage = true;
    so.aioPrefetchDepth = prefetchDepth;
    ds::IStream s(fs, &d, "f.ds", so);
    std::vector<int> mine;
    while (!s.atEnd()) {
      s.read();
      if (!s.hasRecord()) break;  // salvage consumed damage to the tail
      s >> g;
      // Identify which record this is by its contents.
      for (int r = 0; r < records; ++r) {
        if (countWrong(g, r) == 0) mine.push_back(r);
      }
    }
    if (node.id() == 0) {
      recovered = mine;
      report = s.salvageReport();
    }
  });
  return {recovered, report};
}

/// Tolerant offline scan of "f.ds".
ds::ScanResult scanImage(pfs::Pfs& fs) {
  pfs::MemStorage image;
  image.writeAt(0, fileBytes(fs));
  return ds::scanFile(image);
}

/// The stream and the offline scan agree: counts, damage offsets and byte
/// lengths.
void expectSameReport(const ds::SalvageReport& stream,
                      const ds::SalvageReport& scan) {
  EXPECT_EQ(stream.recordsRecovered, scan.recordsRecovered);
  EXPECT_EQ(stream.recordsLost, scan.recordsLost);
  ASSERT_EQ(stream.damage.size(), scan.damage.size());
  for (size_t i = 0; i < scan.damage.size(); ++i) {
    EXPECT_EQ(stream.damage[i].offset, scan.damage[i].offset) << i;
    EXPECT_EQ(stream.damage[i].bytes, scan.damage[i].bytes) << i;
  }
}

TEST(Salvage, CleanFileReadsEverythingWithEmptyReport) {
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 3);
  auto [recovered, report] = salvageRead(fs, 3);
  EXPECT_EQ(recovered, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.recordsRecovered, 3u);
  EXPECT_EQ(report.recordsLost, 0u);
}

TEST(Salvage, NonSalvageReadsClaimNoRecoveries) {
  // Regression: recordsRecovered used to be bumped on EVERY successful
  // finishRecord, so a clean reader without salvage enabled reported
  // "recoveries" it never performed. Recovery counts are salvage-mode
  // bookkeeping only.
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 3);
  ds::SalvageReport cleanReport;
  test::runSpmd(kNodes, [&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream s(fs, &d, "f.ds");  // salvage OFF
    for (int r = 0; r < 3; ++r) {
      s.read();
      s >> g;
      EXPECT_EQ(countWrong(g, r), 0);
    }
    if (node.id() == 0) cleanReport = s.salvageReport();
  });
  EXPECT_EQ(cleanReport.recordsRecovered, 0u);
  EXPECT_EQ(cleanReport.recordsLost, 0u);
  EXPECT_TRUE(cleanReport.clean());

  // The same file under salvage DOES count its records as recovered — the
  // two reports must differ exactly in that counter.
  auto [recovered, report] = salvageRead(fs, 3);
  EXPECT_EQ(recovered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(report.recordsRecovered, 3u);
}

// The damage cases below run at aioPrefetchDepth 0 (synchronous) and 1
// (prefetch): the verdicts must not depend on the depth.

void checkCorruptMiddleRecord(int prefetchDepth) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  ASSERT_EQ(spans.size(), 3u);
  // Flip data bytes in record 1 (near its end: inside the element data,
  // past the header and size table, before the 4-byte CRC trailer).
  const std::uint64_t hit = spans[1].second - 10;
  fs.corruptByte("f.ds", hit, Byte{0xFF});
  fs.corruptByte("f.ds", hit + 1, Byte{0xFF});

  auto [recovered, report] = salvageRead(fs, 3, prefetchDepth);
  // Records 0 and 2 come back byte-identical; 1 is skipped.
  EXPECT_EQ(recovered, (std::vector<int>{0, 2}));
  EXPECT_EQ(report.recordsRecovered, 2u);
  EXPECT_EQ(report.recordsLost, 1u);
  ASSERT_EQ(report.damage.size(), 1u);
  EXPECT_EQ(report.damage[0].offset, spans[1].first);
  EXPECT_EQ(report.damage[0].offset + report.damage[0].bytes,
            spans[1].second);
  expectSameReport(report, scanImage(fs).report);
}

void checkTornTail(int prefetchDepth) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  ASSERT_EQ(spans.size(), 3u);
  // Tear the file mid-record-2 (a crash mid-append).
  const std::uint64_t tearAt = spans[2].first + 10;
  fs.truncateFile("f.ds", tearAt);

  auto [recovered, report] = salvageRead(fs, 3, prefetchDepth);
  EXPECT_EQ(recovered, (std::vector<int>{0, 1}));
  EXPECT_EQ(report.recordsRecovered, 2u);
  EXPECT_EQ(report.recordsLost, 1u);
  ASSERT_EQ(report.damage.size(), 1u);
  EXPECT_EQ(report.damage[0].offset, spans[2].first);
  expectSameReport(report, scanImage(fs).report);
}

TEST(Salvage, WithoutSalvageTheSameDamageThrows) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 2);
  fs.truncateFile("f.ds", spans[1].first + 6);
  EXPECT_THROW(
      test::runSpmd(kNodes,
                    [&](rt::Node&) {
                      coll::Processors P;
                      coll::Distribution d(kElems, &P,
                                           coll::DistKind::Block);
                      coll::Collection<double> g(&d);
                      ds::IStream s(fs, &d, "f.ds");
                      s.read();
                      s >> g;
                      s.read();  // hits the torn tail
                      s >> g;
                    }),
      FormatError);
}

void checkScanAgreesWithStream(int prefetchDepth) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  const std::uint64_t hit = spans[1].second - 10;  // element data region
  fs.corruptByte("f.ds", hit, Byte{0xFF});
  fs.corruptByte("f.ds", hit + 1, Byte{0xFF});

  const ds::ScanResult scan = scanImage(fs);
  expectSameReport(salvageRead(fs, 3, prefetchDepth).second, scan.report);
  EXPECT_EQ(scan.report.recordsRecovered, 2u);
  EXPECT_EQ(scan.report.recordsLost, 1u);
  ASSERT_EQ(scan.report.damage.size(), 1u);
  EXPECT_EQ(scan.report.damage[0].offset, spans[1].first);
  // The valid *prefix* ends before the damaged record 1, even though
  // record 2 behind it is intact (a normal reader stops at the damage).
  EXPECT_EQ(scan.validPrefixEnd, spans[1].first);
  ASSERT_EQ(scan.info.records.size(), 2u);
  EXPECT_EQ(scan.info.records[0].offset, spans[0].first);
  EXPECT_EQ(scan.info.records[1].offset, spans[2].first);

  const std::string text = ds::formatSalvageReport(scan.report);
  EXPECT_NE(text.find("2 record(s) recovered"), std::string::npos) << text;
  EXPECT_NE(text.find("1 lost"), std::string::npos) << text;
  EXPECT_NE(text.find("checksum"), std::string::npos) << text;
}

void checkWrappingHeaderSizes(int prefetchDepth, std::uint64_t dataBytes) {
  pfs::Pfs fs = test::memFs();
  const auto spans = writeRecords(fs, 3);
  // Re-encode record 0's header (fresh CRC, same length) with a dataBytes
  // that wraps the record's end offset past 2^64: checksum-clean, but the
  // record cannot fit the chain, so nothing behind it can be located.
  const ds::ScanResult clean = scanImage(fs);
  ds::RecordHeader lie = clean.info.records[0].header;
  ASSERT_TRUE(lie.hasDataCrc());
  lie.dataBytes = dataBytes;
  const ByteBuffer bytes = lie.encode();
  ASSERT_EQ(bytes.size(), clean.info.records[0].headerBytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    fs.corruptByte("f.ds", spans[0].first + i, bytes[i]);
  }

  const ds::ScanResult scan = scanImage(fs);
  EXPECT_EQ(scan.report.recordsRecovered, 0u);
  EXPECT_EQ(scan.report.recordsLost, 1u);
  ASSERT_EQ(scan.report.damage.size(), 1u);
  EXPECT_EQ(scan.report.damage[0].offset, spans[0].first);
  EXPECT_EQ(scan.report.damage[0].bytes,
            clean.info.footerOffset - spans[0].first);
  auto [recovered, report] = salvageRead(fs, 3, prefetchDepth);
  EXPECT_TRUE(recovered.empty());
  expectSameReport(report, scan.report);
}

TEST(Salvage, CorruptMiddleRecordIsSkippedAndReported) {
  checkCorruptMiddleRecord(0);
}

TEST(Salvage, CorruptMiddleRecordIsSkippedAndReportedUnderPrefetch) {
  checkCorruptMiddleRecord(1);
}

TEST(Salvage, TornTailIsConsumedAndReported) { checkTornTail(0); }

TEST(Salvage, TornTailIsConsumedAndReportedUnderPrefetch) {
  checkTornTail(1);
}

TEST(Salvage, ScanFileAgreesWithTheStreamAndFindsThePrefix) {
  checkScanAgreesWithStream(0);
}

TEST(Salvage, ScanFileAgreesWithTheStreamAndFindsThePrefixUnderPrefetch) {
  checkScanAgreesWithStream(1);
}

// ~0 - 7 wraps the end offset to just past the table; ~0 makes dataBytes
// plus the 4-byte CRC trailer itself wrap to 3.
TEST(Salvage, HeaderSizesThatWrapAreATornTail) {
  checkWrappingHeaderSizes(0, ~std::uint64_t{0} - 7);
  checkWrappingHeaderSizes(0, ~std::uint64_t{0});
}

TEST(Salvage, HeaderSizesThatWrapAreATornTailUnderPrefetch) {
  checkWrappingHeaderSizes(1, ~std::uint64_t{0} - 7);
  checkWrappingHeaderSizes(1, ~std::uint64_t{0});
}

TEST(Salvage, ScanOfACleanFileIsClean) {
  pfs::Pfs fs = test::memFs();
  writeRecords(fs, 2);
  const ByteBuffer bytes = fileBytes(fs);
  pfs::MemStorage image;
  image.writeAt(0, bytes);
  const ds::ScanResult scan = ds::scanFile(image);
  EXPECT_TRUE(scan.report.clean());
  EXPECT_EQ(scan.info.records.size(), 2u);
  EXPECT_EQ(scan.validPrefixEnd, bytes.size());
}

}  // namespace
