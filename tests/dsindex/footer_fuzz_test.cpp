// Seeded corruption battery over the index footer: every way the footer can
// be damaged — truncated, bit-flipped, magic overwritten, lying offsets,
// record-count mismatch, torn by a short write at append time — must
// degrade to chain replay that returns exactly the pristine records, with
// dsindex.fallbacks accounting for the degradation. Never a crash, never a
// misread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/dsindex/dsindex.h"
#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "src/pfs/fault_plan.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr int kRecords = 4;
constexpr std::int64_t kElements = 12;

/// Write the reference file: kRecords records of doubles, 2 nodes, block.
void writeReference(pfs::Pfs& fs, const std::string& name) {
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::OStream s(fs, &d, name);
    for (int r = 0; r < kRecords; ++r) {
      g.forEachLocal([r](double& v, std::int64_t i) {
        v = static_cast<double>(i) + r * 1000.0;
      });
      s << g;
      s.write();
    }
  });
}

/// Raw byte image of a mem-backed pfs file.
ByteBuffer fileImage(pfs::Pfs& fs, const std::string& name) {
  ByteBuffer image;
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, name, pfs::OpenMode::Read);
    image.resize(static_cast<size_t>(f->size()));
    f->readAt(node, 0, image);
  });
  return image;
}

/// Create `name` holding exactly `image`.
void installImage(pfs::Pfs& fs, const std::string& name,
                  const ByteBuffer& image) {
  rt::Machine m(1);
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, name, pfs::OpenMode::Create);
    f->writeAt(node, 0, image);
  });
}

/// Probe a raw byte image for an index footer.
dsindex::ProbeResult probeImage(const ByteBuffer& image) {
  return dsindex::probeFooter(
      [&image](std::uint64_t off, std::span<Byte> out) {
        if (off >= image.size()) return std::uint64_t{0};
        const std::uint64_t n =
            std::min<std::uint64_t>(out.size(), image.size() - off);
        std::memcpy(out.data(), image.data() + off, static_cast<size_t>(n));
        return n;
      },
      image.size(), ds::kFileHeaderBytes);
}

/// Append one reference-shaped record (value pattern `r = tag`) to `name`.
void appendOneRecord(pfs::Pfs& fs, const std::string& name, int tag) {
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.append = true;
    ds::OStream s(fs, &d, name, so);
    g.forEachLocal([tag](double& v, std::int64_t i) {
      v = static_cast<double>(i) + tag * 1000.0;
    });
    s << g;
    s.write();
  });
}

/// Salvage-read `name` at `prefetchDepth`: the stream's report, with every
/// recovered record checked against the reference value pattern.
ds::SalvageReport salvageReadAll(pfs::Pfs& fs, const std::string& name,
                                 int prefetchDepth) {
  ds::SalvageReport report;
  rt::Machine m(2);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.salvage = true;
    so.aioPrefetchDepth = prefetchDepth;
    ds::IStream in(fs, &d, name, so);
    for (int r = 0; !in.atEnd(); ++r) {
      in.read();
      if (!in.hasRecord()) break;
      in >> g;
      std::int64_t bad = 0;
      g.forEachLocal([&](double& v, std::int64_t i) {
        if (v != static_cast<double>(i) + r * 1000.0) ++bad;
      });
      EXPECT_EQ(bad, 0) << "record " << r;
    }
    if (node.id() == 0) report = in.salvageReport();
  });
  return report;
}

/// Sequentially read `count` records, checking the reference value pattern
/// and that the chain ends exactly there.
void expectSequentialRecords(pfs::Pfs& fs, const std::string& name,
                             int count, bool expectIndexed) {
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream in(fs, &d, name);
    EXPECT_EQ(in.indexed(), expectIndexed);
    for (int r = 0; r < count; ++r) {
      in.read();
      in >> g;
      std::int64_t bad = 0;
      g.forEachLocal([&](double& v, std::int64_t i) {
        if (v != static_cast<double>(i) + r * 1000.0) ++bad;
      });
      EXPECT_EQ(bad, 0) << "record " << r;
    }
    EXPECT_TRUE(in.atEnd());
  });
}

/// Read every record (shuffled by `rng`) via readRecord(k) and fingerprint
/// each; also assert the stream reports no usable index and that
/// dsindex.fallbacks ticked.
std::vector<std::uint64_t> readAllShuffled(pfs::Pfs& fs,
                                           const std::string& name,
                                           Rng& rng, bool expectIndexed) {
  std::vector<std::uint32_t> order(kRecords);
  for (int r = 0; r < kRecords; ++r) order[static_cast<size_t>(r)] = r;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }

  std::vector<std::atomic<std::uint64_t>> sums(kRecords);
  rt::Machine m(2);
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::IStream is(fs, &d, name);
    EXPECT_EQ(is.indexed(), expectIndexed);
    for (const std::uint32_t k : order) {
      is.readRecord(k);
      is >> g;
      g.forEachLocal([&](double& v, std::int64_t) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        sums[k].fetch_add(bits * 2654435761u);
      });
    }
  });
  m.detachObserver();
  const auto snap = reg.snapshot();
  if (expectIndexed) {
    EXPECT_EQ(snap.merged.counter(obs::Counter::DsIndexFallbacks), 0u);
  } else {
    EXPECT_GE(snap.merged.counter(obs::Counter::DsIndexFallbacks), 1u);
  }
  std::vector<std::uint64_t> out(kRecords);
  for (int r = 0; r < kRecords; ++r) out[static_cast<size_t>(r)] = sums[r];
  return out;
}

class FooterFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FooterFuzz, EveryCorruptionFallsBackToIdenticalBytes) {
  const int seed = GetParam();
  if (const char* only = std::getenv("PCXX_FOOTER_SEED")) {
    if (seed != std::atoi(only)) GTEST_SKIP() << "PCXX_FOOTER_SEED set";
  }
  SCOPED_TRACE(::testing::Message() << "repro: PCXX_FOOTER_SEED=" << seed
                                    << " ./footer_fuzz_test");
  Rng rng(0xF007ull * 2654435761ull + static_cast<std::uint64_t>(seed));

  pfs::Pfs fs = test::memFs();
  writeReference(fs, "ref.ds");
  const ByteBuffer image = fileImage(fs, "ref.ds");
  const std::uint64_t fileBytes = image.size();

  // Ground truth: the pristine indexed read.
  const std::vector<std::uint64_t> expected =
      readAllShuffled(fs, "ref.ds", rng, /*expectIndexed=*/true);

  const auto probe = probeImage(image);
  ASSERT_EQ(probe.status, dsindex::ProbeStatus::Valid) << probe.reason;
  const std::uint64_t footerOffset = probe.footerOffset;
  const std::uint64_t footerBytes = fileBytes - footerOffset;

  struct CaseDef {
    const char* name;
    std::function<ByteBuffer(ByteBuffer)> corrupt;
  };
  const std::vector<CaseDef> cases = {
      {"truncated-footer",
       [&](ByteBuffer img) {
         // Cut somewhere strictly inside the footer: trailer gone.
         const std::uint64_t keep =
             footerOffset + static_cast<std::uint64_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(footerBytes) -
                                       static_cast<std::int64_t>(
                                           dsindex::kTrailerBytes)));
         img.resize(static_cast<size_t>(keep));
         return img;
       }},
      {"bit-flipped-body",
       [&](ByteBuffer img) {
         // Flip one bit anywhere in the CRC-covered body.
         const std::uint64_t at =
             footerOffset + static_cast<std::uint64_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(
                                       footerBytes - dsindex::kTrailerBytes) -
                                       1));
         img[static_cast<size_t>(at)] = static_cast<Byte>(
             img[static_cast<size_t>(at)] ^
             static_cast<Byte>(1u << rng.uniformInt(0, 7)));
         return img;
       }},
      {"trailer-magic-overwritten",
       [&](ByteBuffer img) {
         for (size_t i = 0; i < 8; ++i) {
           img[img.size() - 8 + i] = Byte{0x00};
         }
         return img;
       }},
      {"offset-past-eof-valid-crc",
       [&](ByteBuffer img) {
         // Rewrite the trailer with a correct CRC over lying offsets.
         Byte t[24];
         encodeU64(fileBytes + 4096, t);        // footerOffset past EOF
         encodeU64(footerBytes - 28, t + 8);    // bodyBytes unchanged
         std::memcpy(t + 16, dsindex::kTrailerMagic, 8);
         Byte crc[4];
         encodeU32(crc32(std::span<const Byte>(t, 24)), crc);
         std::memcpy(img.data() + img.size() - 28, crc, 4);
         std::memcpy(img.data() + img.size() - 24, t, 24);
         return img;
       }},
      {"tiny-header-bytes-valid-crc",
       [&](ByteBuffer img) {
         // Zero entry 0's headerBytes (body prelude 24 bytes, then the
         // entry's u64 offset field) and recompute the body CRC: the lie
         // is checksum-clean and must be rejected structurally, never
         // used to size a header read or an 8-byte prefix span.
         const std::uint64_t bodyBytes = footerBytes - dsindex::kTrailerBytes;
         Byte* body = img.data() + footerOffset;
         encodeU32(0, body + 24 + 8);
         Byte crc[4];
         encodeU32(crc32(std::span<const Byte>(
                       body, static_cast<size_t>(bodyBytes - 4))),
                   crc);
         std::memcpy(body + bodyBytes - 4, crc, 4);
         return img;
       }},
      {"record-count-mismatch-valid-crc",
       [&](ByteBuffer img) {
         // Bump recordCount and recompute the body CRC: the checksum
         // passes, the decode must still reject the inconsistency.
         const std::uint64_t bodyBytes = footerBytes - dsindex::kTrailerBytes;
         Byte* body = img.data() + footerOffset;
         encodeU64(decodeU64(body + 16) + 1, body + 16);
         Byte crc[4];
         encodeU32(crc32(std::span<const Byte>(
                       body, static_cast<size_t>(bodyBytes - 4))),
                   crc);
         std::memcpy(body + bodyBytes - 4, crc, 4);
         return img;
       }},
  };

  for (const CaseDef& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string name = std::string("fuzz_") + c.name + ".ds";
    installImage(fs, name, c.corrupt(image));
    const std::vector<std::uint64_t> got =
        readAllShuffled(fs, name, rng, /*expectIndexed=*/false);
    EXPECT_EQ(got, expected) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FooterFuzz, ::testing::Range(0, 6));

TEST(FooterFuzz, ShortWriteTearsTheFooterAndReadersFallBack) {
  // A FaultPlan short-write clause on the footer append leaves a torn
  // footer on storage; readers must treat it as absent/corrupt and still
  // deliver every record by replay.
  pfs::Pfs probeFs = test::memFs();
  pfs::OpRecorder rec;
  probeFs.setObserveHook(rec.hook());
  writeReference(probeFs, "probe.ds");
  probeFs.setObserveHook(nullptr);

  // The footer append is the last write the stream issues: the highest
  // opIndex (the recorder's vector order races across nodes — opIndex is
  // the authoritative sequence).
  std::uint64_t footerOp = 0;
  std::uint64_t footerBytes = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind == pfs::OpKind::Write && op.opIndex >= footerOp) {
      footerOp = op.opIndex;
      footerBytes = op.bytes;
    }
  }
  ASSERT_GT(footerBytes, dsindex::kTrailerBytes);

  pfs::Pfs fs = test::memFs();
  pfs::FaultPlan plan;
  plan.shortCompletionAtOp(footerOp, footerBytes / 2)
      .onlyKind(pfs::OpKind::Write);
  fs.setFaultHook(plan.hook());
  // The short write tears the footer append; the stream destructor treats
  // a failed footer as cosmetic (the record chain is already durable), so
  // the write itself completes.
  EXPECT_NO_THROW(writeReference(fs, "torn.ds"));
  fs.setFaultHook(nullptr);
  EXPECT_EQ(plan.firedCount(), 1u);

  // The record chain is intact; only the footer is torn.
  Rng rng(7);
  const std::vector<std::uint64_t> torn =
      readAllShuffled(fs, "torn.ds", rng, /*expectIndexed=*/false);

  pfs::Pfs cleanFs = test::memFs();
  writeReference(cleanFs, "clean.ds");
  Rng rng2(7);
  const std::vector<std::uint64_t> expected =
      readAllShuffled(cleanFs, "clean.ds", rng2, /*expectIndexed=*/true);
  EXPECT_EQ(torn, expected);
}

TEST(FooterFuzz, PinnedChainEndInsideARecordIsOneVerdictAtEveryDepth) {
  pfs::Pfs fs = test::memFs();
  writeReference(fs, "ref.ds");
  ByteBuffer image = fileImage(fs, "ref.ds");
  const auto pristine = probeImage(image);
  ASSERT_EQ(pristine.status, dsindex::ProbeStatus::Valid) << pristine.reason;
  const std::uint64_t lastRecord = pristine.index.entries.back().offset;
  // Move footerOffset 8 bytes earlier and grow bodyBytes by 8 under a
  // recomputed trailer CRC: the trailer stays intact (its body no longer
  // decodes), so the chain end it pins cuts the last record short.
  Byte* trailer = image.data() + image.size() - dsindex::kTrailerBytes;
  encodeU64(decodeU64(trailer + 4) - 8, trailer + 4);
  encodeU64(decodeU64(trailer + 12) + 8, trailer + 12);
  encodeU32(crc32(std::span<const Byte>(trailer + 4, 24)), trailer);
  installImage(fs, "pinned.ds", image);
  const std::uint64_t chainEnd = pristine.footerOffset - 8;

  pfs::MemStorage storage;
  storage.writeAt(0, image);
  const ds::SalvageReport scan = ds::scanFile(storage).report;
  EXPECT_EQ(scan.recordsRecovered, 3u);
  EXPECT_EQ(scan.recordsLost, 1u);
  ASSERT_FALSE(scan.damage.empty());
  EXPECT_EQ(scan.damage[0].offset, lastRecord);
  EXPECT_EQ(scan.damage[0].bytes, chainEnd - lastRecord);

  for (const int depth : {0, 1}) {
    SCOPED_TRACE(::testing::Message() << "aioPrefetchDepth " << depth);
    const ds::SalvageReport got = salvageReadAll(fs, "pinned.ds", depth);
    EXPECT_EQ(got.recordsRecovered, scan.recordsRecovered);
    EXPECT_EQ(got.recordsLost, scan.recordsLost);
    ASSERT_EQ(got.damage.size(), 1u);
    EXPECT_EQ(got.damage[0].offset, scan.damage[0].offset);
    EXPECT_EQ(got.damage[0].bytes, scan.damage[0].bytes);

    // Without salvage the same record is a FormatError, as in inspectFile.
    rt::Machine m(2);
    EXPECT_THROW(m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(kElements, &P, coll::DistKind::Block);
      coll::Collection<double> g(&d);
      ds::StreamOptions so;
      so.aioPrefetchDepth = depth;
      ds::IStream in(fs, &d, "pinned.ds", so);
      for (int r = 0; r < kRecords; ++r) {
        in.read();
        in >> g;
      }
    }),
                 FormatError);
  }
  EXPECT_THROW(ds::inspectFile(storage), FormatError);
  // skipRecord walks the same cursor: the cut record cannot be skipped.
  rt::Machine m(2);
  EXPECT_THROW(m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    ds::IStream in(fs, &d, "pinned.ds");
    for (int r = 0; r < kRecords; ++r) in.skipRecord();
  }),
               FormatError);
}

TEST(FooterFuzz, AppendOverwritesACorruptFooterInsteadOfBuryingIt) {
  pfs::Pfs fs = test::memFs();
  writeReference(fs, "ref.ds");
  ByteBuffer image = fileImage(fs, "ref.ds");
  const auto pristine = probeImage(image);
  ASSERT_EQ(pristine.status, dsindex::ProbeStatus::Valid) << pristine.reason;
  // Break the body magic: the footer is Corrupt, but the intact trailer
  // still pins the exact end of the record chain.
  image[static_cast<size_t>(pristine.footerOffset)] ^= Byte{0xFF};
  installImage(fs, "corrupt_append.ds", image);

  // Append two records: together they always outgrow the broken footer
  // region, so the rewritten tail extends past the old EOF and a plain
  // replay sees one clean chain — old records, then the appended ones,
  // never the buried footer bytes.
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElements, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    ds::StreamOptions so;
    so.append = true;
    ds::OStream s(fs, &d, "corrupt_append.ds", so);
    for (int r = kRecords; r < kRecords + 2; ++r) {
      g.forEachLocal([r](double& v, std::int64_t i) {
        v = static_cast<double>(i) + r * 1000.0;
      });
      s << g;
      s.write();
    }
  });

  // The old entries' geometry is unknown, so the file continues as a
  // plain (footer-less) chain.
  expectSequentialRecords(fs, "corrupt_append.ds", kRecords + 2,
                          /*expectIndexed=*/false);
}

TEST(FooterFuzz, AppendRefusesAFooterOfUnknownExtent) {
  pfs::Pfs fs = test::memFs();
  writeReference(fs, "ref.ds");
  ByteBuffer image = fileImage(fs, "ref.ds");
  // Break the trailer checksum: the footer is corrupt AND its extent is
  // untrusted, so appending anywhere could bury it mid-chain (hiding the
  // new records) or overwrite real records.
  image[image.size() - dsindex::kTrailerBytes] ^= Byte{0xFF};
  installImage(fs, "untrusted.ds", image);
  EXPECT_THROW(appendOneRecord(fs, "untrusted.ds", kRecords), FormatError);
  // The refused append left the file untouched: every original record is
  // still delivered by replay.
  Rng rng(11);
  readAllShuffled(fs, "untrusted.ds", rng, /*expectIndexed=*/false);
}

TEST(FooterFuzz, PendingInsertTeardownStillAppendsTheFooterAfterAppend) {
  // The ghost-record hazard: an append-mode stream adopts the footer, its
  // records start overwriting the old footer body, and the stream is then
  // destroyed on the warning path (inserts pending, never written). The
  // cursor is still record-aligned after the last write(), so the
  // destructor must append the grown footer anyway — otherwise the new
  // records sit behind footer remnants where no replay can see them.
  pfs::Pfs fs = test::memFs();
  const int base = 10;
  rt::Machine m(2);
  auto fill = [](coll::Collection<int>& g, int r) {
    g.forEachLocal([r](int& v, std::int64_t i) {
      v = static_cast<int>(r * 100 + i);
    });
  };
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::OStream s(fs, &d, "ghost.ds");
    for (int r = 0; r < base; ++r) {
      fill(g, r);
      s << g;
      s.write();
    }
  });
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::StreamOptions so;
    so.append = true;
    ds::OStream s(fs, &d, "ghost.ds", so);
    fill(g, base);
    s << g;
    s.write();  // durable record `base`
    fill(g, base + 1);
    s << g;  // inserted but never written: destructor warns, skips nothing
  });
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(4, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    ds::IStream in(fs, &d, "ghost.ds");
    EXPECT_TRUE(in.indexed());
    for (int r = 0; r <= base; ++r) {
      in.read();
      in >> g;
      std::int64_t bad = 0;
      g.forEachLocal([&](int& v, std::int64_t i) {
        if (v != static_cast<int>(r * 100 + i)) ++bad;
      });
      EXPECT_EQ(bad, 0) << "record " << r;
    }
    EXPECT_TRUE(in.atEnd());
  });
}

TEST(FooterFuzz, FirstAppendedWriteZeroesTheStaleTrailerBeforeRecordBytes) {
  // A crash (or failed write-behind teardown) between the first appended
  // record byte and the footer rewrite must not leave the old trailer
  // alive: it would keep pinning readers' chain end at the old footer
  // offset, silently hiding every appended record. The append session's
  // very first file write therefore zeroes the stale trailer.
  pfs::Pfs fs = test::memFs();
  writeReference(fs, "ref.ds");
  const ByteBuffer image = fileImage(fs, "ref.ds");
  const auto probe = probeImage(image);
  ASSERT_EQ(probe.status, dsindex::ProbeStatus::Valid) << probe.reason;
  const std::uint64_t trailerAt = image.size() - dsindex::kTrailerBytes;

  pfs::OpRecorder rec;
  fs.setObserveHook(rec.hook());
  appendOneRecord(fs, "ref.ds", kRecords);
  fs.setObserveHook(nullptr);

  bool sawZero = false;
  std::uint64_t zeroOp = 0;
  std::uint64_t firstRecordOp = ~std::uint64_t{0};
  for (const auto& op : rec.ops()) {
    if (op.kind != pfs::OpKind::Write) continue;
    if (op.offset == trailerAt && op.bytes == dsindex::kTrailerBytes) {
      sawZero = true;
      zeroOp = op.opIndex;
    } else if (op.offset == probe.footerOffset &&
               op.opIndex < firstRecordOp) {
      firstRecordOp = op.opIndex;
    }
  }
  ASSERT_TRUE(sawZero);
  ASSERT_NE(firstRecordOp, ~std::uint64_t{0});
  EXPECT_LT(zeroOp, firstRecordOp);

  // And the clean close still leaves a fully indexed file.
  expectSequentialRecords(fs, "ref.ds", kRecords + 1, /*expectIndexed=*/true);
}

}  // namespace
