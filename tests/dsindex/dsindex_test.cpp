// pcxx::dsindex unit tests: footer codec round trip, probe status taxonomy,
// structural validation, and the O(1)-seek guarantee measured in real pfs
// read operations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "src/dsindex/dsindex.h"
#include "src/dstream/dstream.h"
#include "src/util/crc32.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

/// A consistent two-record index for a chain starting at offset 16.
dsindex::FileIndex sampleIndex() {
  dsindex::FileIndex idx;
  dsindex::IndexEntry a;
  a.offset = 16;
  a.headerBytes = 40;
  a.recordFlags = 1;
  a.recordBytes = 120;
  a.dataBytes = 64;
  a.layoutDigest = 0xDEADBEEF;
  a.extents = {40, 24};
  dsindex::IndexEntry b;
  b.offset = 136;
  b.headerBytes = 44;
  b.recordFlags = 0;
  b.recordBytes = 90;
  b.dataBytes = 30;
  b.layoutDigest = 0xDEADBEEF;
  b.extents = {30, 0};
  idx.entries = {a, b};
  return idx;
}

/// Wrap a ByteBuffer as the probe read callback.
dsindex::ReadFn readerFor(const ByteBuffer& image) {
  return [&image](std::uint64_t offset, std::span<Byte> out) {
    if (offset >= image.size()) return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), image.size() - offset);
    std::memcpy(out.data(), image.data() + offset, static_cast<size_t>(n));
    return n;
  };
}

/// A fake "file": `chainBytes` of filler followed by the encoded footer.
ByteBuffer imageFor(const dsindex::FileIndex& idx, std::uint64_t chainBytes) {
  ByteBuffer image(static_cast<size_t>(chainBytes), Byte{0x5A});
  const ByteBuffer footer = idx.encodeFooter(chainBytes);
  image.insert(image.end(), footer.begin(), footer.end());
  return image;
}

TEST(DsIndexCodec, BodyRoundTripsThroughEncodeDecode) {
  const dsindex::FileIndex idx = sampleIndex();
  const ByteBuffer body = idx.encodeBody();
  const dsindex::FileIndex back = dsindex::FileIndex::decodeBody(body);
  EXPECT_EQ(back, idx);
}

TEST(DsIndexCodec, DecodeRejectsEveryDamagedByte) {
  // Any single corrupted body byte must surface as FormatError — the body
  // CRC covers everything before it, and the CRC field itself is the tail.
  const ByteBuffer body = sampleIndex().encodeBody();
  for (size_t i = 0; i < body.size(); ++i) {
    ByteBuffer bad = body;
    bad[i] = static_cast<Byte>(bad[i] ^ Byte{0x40});
    EXPECT_THROW(dsindex::FileIndex::decodeBody(bad), FormatError) << i;
  }
}

TEST(DsIndexProbe, ValidFooterRoundTrips) {
  const dsindex::FileIndex idx = sampleIndex();
  const ByteBuffer image = imageFor(idx, /*chainBytes=*/226);
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_EQ(probe.status, dsindex::ProbeStatus::Valid) << probe.reason;
  EXPECT_TRUE(probe.haveFooterOffset);
  EXPECT_EQ(probe.footerOffset, 226u);
  EXPECT_EQ(probe.index, idx);
}

TEST(DsIndexProbe, PreFooterFileIsAbsent) {
  const ByteBuffer image(500, Byte{0x33});
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_EQ(probe.status, dsindex::ProbeStatus::Absent);
  EXPECT_FALSE(probe.haveFooterOffset);
}

TEST(DsIndexProbe, TinyFileIsAbsent) {
  const ByteBuffer image(10, Byte{0x33});
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_EQ(probe.status, dsindex::ProbeStatus::Absent);
}

TEST(DsIndexProbe, DamagedBodyIsCorruptButKeepsChainEnd) {
  // A flipped body byte breaks the index, but the self-checksummed trailer
  // still pins the end of the record chain.
  ByteBuffer image = imageFor(sampleIndex(), 226);
  image[230] = static_cast<Byte>(image[230] ^ Byte{0x01});
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_EQ(probe.status, dsindex::ProbeStatus::Corrupt);
  EXPECT_TRUE(probe.haveFooterOffset);
  EXPECT_EQ(probe.footerOffset, 226u);
}

TEST(DsIndexProbe, DamagedTrailerIsAbsentWithoutChainEnd) {
  ByteBuffer image = imageFor(sampleIndex(), 226);
  image[image.size() - 3] ^= Byte{0xFF};  // inside the trailer magic
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_NE(probe.status, dsindex::ProbeStatus::Valid);
  EXPECT_FALSE(probe.haveFooterOffset);
}

TEST(DsIndexValidate, AcceptsContiguousChain) {
  EXPECT_EQ(dsindex::validateIndex(sampleIndex(), 16, 226), std::string());
}

TEST(DsIndexValidate, RejectsTinyHeaderBytes) {
  // Readers size header buffers (and an 8-byte prefix span) from this
  // field; anything below the minimal magic+length+crc encoding is a lie.
  dsindex::FileIndex idx = sampleIndex();
  idx.entries[0].headerBytes = 4;
  EXPECT_NE(dsindex::validateIndex(idx, 16, 226), std::string());
  idx.entries[0].headerBytes = 0;
  EXPECT_NE(dsindex::validateIndex(idx, 16, 226), std::string());
}

TEST(DsIndexProbe, LyingHeaderBytesWithValidCrcIsCorrupt) {
  // Both CRCs check out, but an entry promises a header too small to hold
  // even the record magic: the probe must reject it so no reader ever
  // builds an out-of-bounds prefix span from it.
  dsindex::FileIndex idx = sampleIndex();
  idx.entries[0].headerBytes = 0;
  const ByteBuffer image = imageFor(idx, /*chainBytes=*/226);
  const auto probe = dsindex::probeFooter(readerFor(image), image.size(), 16);
  EXPECT_EQ(probe.status, dsindex::ProbeStatus::Corrupt);
  EXPECT_TRUE(probe.haveFooterOffset);
}

TEST(DsIndexValidate, RejectsGapsExtentsAndWrongEnd) {
  dsindex::FileIndex gap = sampleIndex();
  gap.entries[1].offset += 8;  // hole between records
  EXPECT_NE(dsindex::validateIndex(gap, 16, 234), std::string());

  dsindex::FileIndex ext = sampleIndex();
  ext.entries[0].extents = {40, 25};  // sum != dataBytes
  EXPECT_NE(dsindex::validateIndex(ext, 16, 226), std::string());

  EXPECT_NE(dsindex::validateIndex(sampleIndex(), 16, 300), std::string());
}

TEST(DsIndexSeek, ReadRecordCostsConstantReadOpsOnAnIndexedFile) {
  // The acceptance bar for the footer: random access to record k takes the
  // same number of pfs read operations for every k. Chain replay, by
  // contrast, pays k extra header reads.
  pfs::Pfs fs = test::memFs();
  const int R = 8;
  const std::int64_t n = 16;
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "o1.ds");
    for (int r = 0; r < R; ++r) {
      g.forEachLocal([r](int& v, std::int64_t i) {
        v = static_cast<int>(i + r * 100);
      });
      s << g;
      s.write();
    }
  });

  pfs::OpRecorder rec;
  auto measure = [&](bool useFooter, std::uint32_t k) {
    std::atomic<std::size_t> reads{0};
    m.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(n, &P, coll::DistKind::Block);
      coll::Collection<int> g(&d);
      ds::StreamOptions so;
      so.dsindexUseFooter = useFooter;
      ds::IStream is(fs, &d, "o1.ds", so);
      EXPECT_EQ(is.indexed(), useFooter);
      node.barrier();
      if (node.id() == 0) {
        rec.clear();
        fs.setObserveHook(rec.hook());
      }
      node.barrier();
      is.readRecord(k);
      is >> g;
      node.barrier();
      if (node.id() == 0) {
        fs.setObserveHook(nullptr);
        std::size_t count = 0;
        for (const auto& op : rec.ops()) {
          if (op.kind == pfs::OpKind::Read) ++count;
        }
        reads.store(count);
      }
      std::int64_t bad = 0;
      g.forEachLocal([&](int& v, std::int64_t i) {
        if (v != static_cast<int>(i + static_cast<std::int64_t>(k) * 100)) {
          ++bad;
        }
      });
      EXPECT_EQ(bad, 0) << "k=" << k << " useFooter=" << useFooter;
    });
    return reads.load();
  };

  const std::size_t indexedFirst = measure(true, 0);
  const std::size_t indexedMid = measure(true, R / 2);
  const std::size_t indexedLast = measure(true, R - 1);
  EXPECT_EQ(indexedFirst, indexedMid);
  EXPECT_EQ(indexedFirst, indexedLast);

  const std::size_t replayFirst = measure(false, 0);
  const std::size_t replayLast = measure(false, R - 1);
  EXPECT_GT(replayLast, replayFirst);       // k header skips show up as I/O
  EXPECT_GT(replayLast, indexedLast);       // the footer actually saves ops
}

TEST(DsIndexSeek, SeekPastEndThrowsOnIndexedAndReplayPathsAlike) {
  // seekRecord(k) for k >= recordCount must throw UsageError on both the
  // indexed path and the chain-replay fallback — including k exactly equal
  // to the record count, where the fallback's skip loop completes and only
  // a final end-of-chain check can reject it.
  pfs::Pfs fs = test::memFs();
  const int R = 3;
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "o3.ds");
    for (int r = 0; r < R; ++r) {
      g.forEachLocal([r](int& v, std::int64_t i) {
        v = static_cast<int>(i + r);
      });
      s << g;
      s.write();
    }
  });
  for (const bool useFooter : {true, false}) {
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(8, &P, coll::DistKind::Block);
      ds::StreamOptions so;
      so.dsindexUseFooter = useFooter;
      ds::IStream is(fs, &d, "o3.ds", so);
      EXPECT_EQ(is.indexed(), useFooter);
      is.seekRecord(R - 1);  // last record: fine on both paths
      EXPECT_THROW(is.seekRecord(R), UsageError) << useFooter;
      EXPECT_THROW(is.seekRecord(R + 5), UsageError) << useFooter;
    });
  }
}

TEST(DsIndexSeek, CountersAccountHitsAndSeeks) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "o2.ds");
    for (int r = 0; r < 3; ++r) {
      g.forEachLocal([r](int& v, std::int64_t i) {
        v = static_cast<int>(i + r);
      });
      s << g;
      s.write();
    }
  });

  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(8, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream is(fs, &d, "o2.ds");
    is.readRecord(2);
    is >> g;
    is.readRecord(0);
    is >> g;
  });
  m.detachObserver();
  const auto snap = reg.snapshot();
  using obs::Counter;
  // Open probe: one hit per node. Two indexed seeks per node on top.
  EXPECT_EQ(snap.merged.counter(Counter::DsIndexSeeks), 4u);
  EXPECT_EQ(snap.merged.counter(Counter::DsIndexHits), 6u);
  EXPECT_EQ(snap.merged.counter(Counter::DsIndexFallbacks), 0u);
}

}  // namespace
