// Chunk-codec stage (pfs::CodecStorage): LZ block codec round trips,
// logical byte-space equivalence against a plain MemStorage model,
// reattach/scan recovery, dedup (in-file and cross-file) with ref
// materialization, the write-side dedup decided by bytes, the codec-off
// byte-identity golden, and the obs accounting contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/dstream/dstream.h"
#include "src/obs/obs.h"
#include "src/pfs/codec.h"
#include "src/util/crc32.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

// Deterministic bytes: compressible (repetitive runs) or noisy.
ByteBuffer patternBytes(size_t n, std::uint64_t seed, bool compressible) {
  ByteBuffer out(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    if (compressible) {
      out[i] = static_cast<Byte>((i / 23 + seed) & 0x0f);
    } else {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      out[i] = static_cast<Byte>(s >> 56);
    }
  }
  return out;
}

TEST(LzCodec, CompressibleRoundtrip) {
  for (const size_t n : {16u, 100u, 4096u, 70000u}) {
    const ByteBuffer src = patternBytes(n, n, /*compressible=*/true);
    ByteBuffer packed;
    ASSERT_TRUE(pfs::lzCompress(src, packed)) << n;
    EXPECT_LT(packed.size(), src.size()) << n;
    EXPECT_EQ(pfs::lzDecompress(packed, src.size()), src) << n;
  }
}

TEST(LzCodec, IncompressibleInputIsRejectedNotMangled) {
  ByteBuffer packed;
  // Too short to ever pay for tokens.
  EXPECT_FALSE(pfs::lzCompress(patternBytes(8, 1, true), packed));
  // High-entropy bytes: no 4-byte repeats worth a match.
  EXPECT_FALSE(pfs::lzCompress(patternBytes(4096, 7, false), packed));
}

TEST(LzCodec, DecompressRejectsMalformedInput) {
  const ByteBuffer src = patternBytes(4096, 3, true);
  ByteBuffer packed;
  ASSERT_TRUE(pfs::lzCompress(src, packed));
  // Truncations of a valid stream must throw, never read out of bounds.
  for (const size_t keep : {0u, 1u, 2u, 5u}) {
    const std::span<const Byte> cut(packed.data(),
                                    std::min(keep, packed.size()));
    EXPECT_THROW(pfs::lzDecompress(cut, src.size()), FormatError) << keep;
  }
  // A wrong declared length must be detected even on an intact stream.
  EXPECT_THROW(pfs::lzDecompress(packed, src.size() - 1), FormatError);
  EXPECT_THROW(pfs::lzDecompress(packed, src.size() + 1), FormatError);
}

// The decorator must be indistinguishable from a plain byte store in the
// logical byte space: drive an identical random op sequence into both and
// compare after every step.
TEST(CodecStorage, MatchesPlainStorageModel) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 256;
  auto codec = pfs::CodecStorage::create(inner, spec, nullptr);
  pfs::MemStorage model;

  std::uint64_t s = 12345;
  const auto rnd = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return (s >> 33) % mod;
  };
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rnd(10);
    if (op < 5) {  // write: random offset/len, mixed compressibility
      const std::uint64_t off = rnd(4096);
      const ByteBuffer data =
          patternBytes(1 + rnd(700), s, rnd(2) == 0);
      codec->writeAt(off, data);
      model.writeAt(off, data);
    } else if (op < 8) {  // read: compare content + short-read behaviour
      const std::uint64_t off = rnd(5000);
      ByteBuffer a(1 + rnd(900)), b(a.size());
      const std::uint64_t ga = codec->readAt(off, a);
      const std::uint64_t gb = model.readAt(off, b);
      ASSERT_EQ(ga, gb) << "step " << step;
      ASSERT_EQ(a, b) << "step " << step;
    } else {  // truncate: shrink or extend (zero fill)
      const std::uint64_t target = rnd(4500);
      codec->truncate(target);
      model.truncate(target);
    }
    ASSERT_EQ(codec->size(), model.size()) << "step " << step;
  }
  // Final full-content sweep.
  ByteBuffer a(static_cast<size_t>(codec->size()));
  ByteBuffer b(a.size());
  EXPECT_EQ(codec->readAt(0, a), a.size());
  EXPECT_EQ(model.readAt(0, b), b.size());
  EXPECT_EQ(a, b);
}

TEST(CodecStorage, ReattachRecoversSizeAndContent) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 128;
  ByteBuffer expect;
  {
    auto codec = pfs::CodecStorage::create(inner, spec, nullptr);
    const ByteBuffer data = patternBytes(1000, 4, true);
    codec->writeAt(0, data);
    // Sparse tail: truncate-extend leaves a hole that must survive the
    // reattach scan as zeros, and must pin the logical size.
    codec->truncate(1500);
    expect.assign(1500, Byte{0});
    std::copy(data.begin(), data.end(), expect.begin());
  }
  auto back = pfs::CodecStorage::attach(inner, nullptr);
  EXPECT_EQ(back->spec().chunkBytes, 128u);
  ASSERT_EQ(back->size(), expect.size());
  ByteBuffer got(expect.size());
  EXPECT_EQ(back->readAt(0, got), got.size());
  EXPECT_EQ(got, expect);
}

TEST(CodecStorage, WrapHelperDetectsFraming) {
  auto framedInner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  {
    auto codec = pfs::CodecStorage::create(framedInner, spec, nullptr);
    codec->writeAt(0, patternBytes(100, 9, true));
  }
  EXPECT_TRUE(pfs::CodecStorage::isFramed(*framedInner));
  auto wrapped = pfs::wrapCodecIfFramed(framedInner);
  EXPECT_NE(wrapped.get(), framedInner.get());
  EXPECT_EQ(wrapped->size(), 100u);

  auto plain = std::make_shared<pfs::MemStorage>();
  plain->writeAt(0, patternBytes(100, 9, true));
  EXPECT_FALSE(pfs::CodecStorage::isFramed(*plain));
  EXPECT_EQ(pfs::wrapCodecIfFramed(plain).get(), plain.get());
}

TEST(CodecStorage, InFileDedupAndMaterialization) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  auto codec = pfs::CodecStorage::create(inner, spec, nullptr);

  const ByteBuffer chunkA = patternBytes(64, 11, true);
  const ByteBuffer chunkB = patternBytes(64, 22, true);
  codec->writeAt(0, chunkA);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(64, chunkA);  // identical full chunk -> ref frame
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + 1);

  // Overwriting the ref TARGET must first materialize the ref: chunk 1
  // keeps reading the old content after chunk 0 changes.
  codec->writeAt(0, chunkB);
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(64, got), 64u);
  EXPECT_EQ(got, chunkA);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, chunkB);

  // And the state must survive a reattach (the scan sees a data frame
  // where the ref was materialized).
  auto back = pfs::CodecStorage::attach(inner, nullptr);
  ASSERT_EQ(back->readAt(64, got), 64u);
  EXPECT_EQ(got, chunkA);
}

TEST(CodecStorage, CrossFileDedupVerifiesBaseContentOnRead) {
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  const ByteBuffer shared = patternBytes(64, 5, true);

  auto baseInner = std::make_shared<pfs::MemStorage>();
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    base->writeAt(0, shared);
  }

  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "epoch.0";
  auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(0, shared);
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore + 1);
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, shared);

  // Mutating the base must surface as DETECTED damage in the referring
  // file (content-hash re-verification), never as silently wrong bytes.
  {
    auto base = pfs::CodecStorage::attach(baseInner, nullptr);
    base->writeAt(0, patternBytes(64, 6, true));
  }
  auto reopened = pfs::CodecStorage::attach(inner, baseInner);
  const std::uint64_t damagedBefore = pfs::codecThreadStats().damagedChunks;
  ASSERT_EQ(reopened->readAt(0, got), 64u);
  EXPECT_EQ(got, ByteBuffer(64, Byte{0}));
  EXPECT_GT(pfs::codecThreadStats().damagedChunks, damagedBefore);
}

// FNV-1a-64, the frame contentHash (docs/FORMAT.md "Chunk codec").
std::uint64_t fnv1a64(std::span<const Byte> data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const Byte b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// Rewrite the contentHash of the frame at `frameOffset` and re-seal its
// header CRC: a checksum-clean frame whose hash lies about its payload.
void forgeContentHash(pfs::StorageBackend& inner, std::uint64_t frameOffset,
                      std::uint64_t hash) {
  Byte h[pfs::CodecStorage::kFrameHeaderBytes];
  ASSERT_EQ(inner.readAt(frameOffset, std::span<Byte>(h, sizeof h)), sizeof h);
  encodeU64(hash, h + 24);
  encodeU32(crc32(std::span<const Byte>(h, 36)), h + 36);
  inner.writeAt(frameOffset, std::span<const Byte>(h, sizeof h));
}

// Frame kind byte (0 = data, 1 = ref) of chunk `index`.
Byte frameKind(pfs::CodecStorage& codec, std::uint64_t index) {
  Byte kind = 0xFF;
  codec.inner().readAt(codec.frameOffset(index) + 4, std::span<Byte>(&kind, 1));
  return kind;
}

// The writer's dedup decision is made by bytes alone: a nominated target
// whose recorded hash matches but whose bytes differ must not become a ref.
TEST(CodecStorage, WriteSideDedupIsDecidedByBytesForBaseNomination) {
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  const ByteBuffer stored = patternBytes(64, 5, true);
  const ByteBuffer fresh = patternBytes(64, 8, true);

  auto baseInner = std::make_shared<pfs::MemStorage>();
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    base->writeAt(0, stored);
    forgeContentHash(*baseInner, base->frameOffset(0), fnv1a64(fresh));
  }

  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "epoch.0";
  auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(0, fresh);
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore);
  EXPECT_EQ(frameKind(*codec, 0), Byte{0});
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, fresh);
  auto reopened = pfs::CodecStorage::attach(inner, baseInner);
  ASSERT_EQ(reopened->readAt(0, got), 64u);
  EXPECT_EQ(got, fresh);
}

TEST(CodecStorage, WriteSideDedupIsDecidedByBytesForOwnNomination) {
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  const ByteBuffer stored = patternBytes(64, 5, true);
  const ByteBuffer fresh = patternBytes(64, 8, true);
  {
    auto codec = pfs::CodecStorage::create(inner, spec, nullptr);
    codec->writeAt(0, stored);
    forgeContentHash(*inner, codec->frameOffset(0), fnv1a64(fresh));
  }
  // The reattach scan takes the forged hash as chunk 0's nomination.
  auto codec = pfs::CodecStorage::attach(inner, nullptr);
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(64, fresh);
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore);
  EXPECT_EQ(frameKind(*codec, 1), Byte{0});
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, stored);
  ASSERT_EQ(codec->readAt(64, got), 64u);
  EXPECT_EQ(got, fresh);
}

TEST(CodecStorage, WriteSideDedupIsDecidedByBytesForMutatedBase) {
  pfs::CodecSpec spec;
  spec.enabled = true;
  spec.chunkBytes = 64;
  const ByteBuffer shared = patternBytes(64, 5, true);

  auto baseInner = std::make_shared<pfs::MemStorage>();
  {
    auto base = pfs::CodecStorage::create(baseInner, spec, nullptr);
    base->writeAt(0, shared);
  }
  auto inner = std::make_shared<pfs::MemStorage>();
  pfs::CodecSpec withBase = spec;
  withBase.dedupBase = "epoch.0";
  auto codec = pfs::CodecStorage::create(inner, withBase, baseInner);
  // The base changes after create(): the derived file's nomination for
  // `shared` is now stale.
  {
    auto base = pfs::CodecStorage::attach(baseInner, nullptr);
    base->writeAt(0, patternBytes(64, 6, true));
  }
  const std::uint64_t hitsBefore = pfs::codecThreadStats().dedupHits;
  codec->writeAt(0, shared);
  EXPECT_EQ(pfs::codecThreadStats().dedupHits, hitsBefore);
  EXPECT_EQ(frameKind(*codec, 0), Byte{0});
  ByteBuffer got(64);
  ASSERT_EQ(codec->readAt(0, got), 64u);
  EXPECT_EQ(got, shared);
  auto reopened = pfs::CodecStorage::attach(inner, baseInner);
  ASSERT_EQ(reopened->readAt(0, got), 64u);
  EXPECT_EQ(got, shared);
}

// ---------------------------------------------------------------------------
// Pfs / d-stream integration
// ---------------------------------------------------------------------------

class CodecFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("PCXX_CODEC");
    dir_ = std::filesystem::temp_directory_path() /
           ("pcxx_codec_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("PCXX_CODEC");
    std::filesystem::remove_all(dir_);
  }

  pfs::Pfs posixFs() {
    pfs::PfsConfig cfg;
    cfg.backend = pfs::PfsConfig::Backend::Posix;
    cfg.dir = dir_.string();
    return pfs::Pfs(cfg);
  }

  void writeStream(pfs::Pfs& fs, const std::string& name,
                   const ds::StreamOptions& so = {}) {
    test::runSpmd(2, [&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(64, &P, coll::DistKind::Block);
      coll::Collection<double> g(&d);
      ds::OStream s(fs, &d, name, so);
      for (int r = 0; r < 2; ++r) {
        g.forEachLocal([r](double& v, std::int64_t i) {
          v = static_cast<double>(r);  // compressible payload
          (void)i;
        });
        s << g;
        s.write();
      }
    });
  }

  ByteBuffer fileBytes(const std::string& name) {
    std::ifstream in(dir_ / name, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();
    ByteBuffer out(s.size());
    std::copy(s.begin(), s.end(), reinterpret_cast<char*>(out.data()));
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(CodecFiles, CodecNoneIsByteIdenticalToDefaultFormat) {
  pfs::Pfs fs = posixFs();
  writeStream(fs, "g0.ds");  // default: no codec configured anywhere
  ds::StreamOptions none;
  none.codec = "none";
  writeStream(fs, "g1.ds", none);
  const ByteBuffer a = fileBytes("g0.ds");
  const ByteBuffer b = fileBytes("g1.ds");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // And neither carries codec framing.
  EXPECT_NE(std::string(reinterpret_cast<const char*>(a.data()), 8),
            "PCXXCDC1");
}

TEST_F(CodecFiles, LzFramedFileReadsBackIdentical) {
  pfs::Pfs fs = posixFs();
  writeStream(fs, "plain.ds");
  ds::StreamOptions lz;
  lz.codec = "lz";
  lz.codecChunkBytes = 1024;
  writeStream(fs, "framed.ds", lz);

  const ByteBuffer framed = fileBytes("framed.ds");
  ASSERT_GE(framed.size(), 8u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(framed.data()), 8),
            "PCXXCDC1");

  // Logical bytes (what any reader sees) are identical to the plain file.
  const ByteBuffer plain = fileBytes("plain.ds");
  test::runSpmd(2, [&](rt::Node& node) {
    auto f = fs.open(node, "framed.ds", pfs::OpenMode::Read);
    ASSERT_EQ(f->size(), plain.size());
    ByteBuffer logical(plain.size());
    EXPECT_EQ(f->readAt(node, 0, logical), logical.size());
    EXPECT_EQ(logical, plain);
  });

  // The repetitive payload must actually shrink on the wire.
  EXPECT_LT(fs.storedFileSize("framed.ds"),
            fs.storedFileSize("plain.ds") +
                pfs::CodecStorage::kFileHeaderBytes);
}

TEST_F(CodecFiles, EnvVariableForcesAndSuppressesFraming) {
  {
    ::setenv("PCXX_CODEC", "lz", 1);
    pfs::Pfs fs = posixFs();  // env parsed at construction
    writeStream(fs, "forced.ds");
    const ByteBuffer raw = fileBytes("forced.ds");
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw.data()), 8),
              "PCXXCDC1");
  }
  {
    ::setenv("PCXX_CODEC", "off", 1);
    pfs::Pfs fs = posixFs();
    ds::StreamOptions lz;
    lz.codec = "lz";  // kill switch beats the per-stream request
    writeStream(fs, "killed.ds", lz);
    const ByteBuffer raw = fileBytes("killed.ds");
    EXPECT_NE(std::string(reinterpret_cast<const char*>(raw.data()), 8),
              "PCXXCDC1");
  }
}

TEST_F(CodecFiles, ObsCountersAccountForCodecTraffic) {
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;

  pfs::PfsConfig cfg;  // memory backend
  cfg.codec.enabled = true;
  cfg.codec.chunkBytes = 1024;
  pfs::Pfs fs(cfg);
  rt::Machine m(2);
  m.attachObserver(observer);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(64, &P, coll::DistKind::Block);
    coll::Collection<double> g(&d);
    g.forEachLocal([](double& v, std::int64_t) { v = 1.0; });
    ds::OStream s(fs, &d, "obs.ds");
    s << g;
    s.write();
    coll::Collection<double> back(&d);
    ds::IStream in(fs, &d, "obs.ds");
    in.read();
    in >> back;
  });

  const obs::NodeSnapshot merged = reg.snapshot().merged;
  const std::uint64_t raw =
      merged.counter(obs::Counter::PfsCodecRawBytes);
  const std::uint64_t stored =
      merged.counter(obs::Counter::PfsCodecStoredBytes);
  EXPECT_GT(raw, 0u);
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, raw);  // repetitive doubles compress
  EXPECT_EQ(merged.counter(obs::Counter::PfsCodecDamagedChunks), 0u);
}

// pfs.codec_seconds covers the whole chunk seal, not only compression: a
// write whose every chunk dedups (so nothing is compressed or decompressed)
// still spends codec time hashing and comparing.
TEST_F(CodecFiles, CodecSecondsCoverHashAndDedupCompare) {
  obs::MetricsRegistry reg(1);
  obs::Observer observer;
  observer.metrics = &reg;
  pfs::PfsConfig cfg;  // memory backend
  cfg.codec.enabled = true;
  cfg.codec.codec = pfs::CodecId::Raw;  // no (de)compression anywhere
  cfg.codec.chunkBytes = 4096;
  pfs::Pfs fs(cfg);
  rt::Machine m(1);
  m.attachObserver(observer);
  const ByteBuffer chunk = patternBytes(4096, 3, false);
  ByteBuffer twoChunks = chunk;
  twoChunks.insert(twoChunks.end(), chunk.begin(), chunk.end());
  double before = 0.0;
  m.run([&](rt::Node& node) {
    auto f = fs.open(node, "seconds.bin", pfs::OpenMode::Create);
    f->writeAt(node, 0, chunk);
    before = reg.snapshot().merged.timer(obs::Timer::PfsCodecSeconds);
    f->writeAt(node, 4096, twoChunks);  // both chunks dedup against chunk 0
  });
  const obs::NodeSnapshot merged = reg.snapshot().merged;
  EXPECT_EQ(merged.counter(obs::Counter::PfsCodecDedupHits), 2u);
  EXPECT_GT(merged.timer(obs::Timer::PfsCodecSeconds), before);
}

TEST_F(CodecFiles, CheckpointDedupAcrossEpochsStoresRefsAndRestores) {
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  pfs::Pfs fs = test::memFs();
  ds::CheckpointOptions co;
  co.baseName = "ckpt";
  co.dedupAcrossEpochs = true;
  co.keepLast = 1;

  rt::Machine m(2);
  m.attachObserver(observer);
  m.run([&](rt::Node& node) {
    coll::Processors P;
    // Large enough that whole 64 KiB chunks repeat across epochs (dedup
    // only ever replaces FULL chunks).
    coll::Distribution d(1 << 16, &P, coll::DistKind::Block);
    coll::Collection<double> data(&d);
    ds::CheckpointManager mgr(fs, co);
    // Epoch 0, then an epoch 1 with identical content: cross-epoch dedup
    // should replace nearly every data chunk with a reference.
    data.forEachLocal([](double& v, std::int64_t g) {
      v = static_cast<double>(g % 7);
    });
    mgr.save(data);
    mgr.save(data);

    coll::Collection<double> back(&d);
    ds::CheckpointManager fresh(fs, co);
    EXPECT_EQ(fresh.restoreLatest(back), 1);
    std::int64_t bad = 0;
    back.forEachLocal([&](double& v, std::int64_t g) {
      if (v != static_cast<double>(g % 7)) ++bad;
    });
    EXPECT_EQ(bad, 0);
    if (node.id() == 0) {
      // Dedup retention: epoch 0 (the reference target) must survive
      // keepLast = 1.
      EXPECT_TRUE(fs.exists("ckpt.0"));
      EXPECT_TRUE(fs.exists("ckpt.1"));
    }
  });
  // Epoch 1 stored references instead of payload for its repeated chunks.
  EXPECT_GT(reg.snapshot().merged.counter(obs::Counter::PfsCodecDedupHits),
            0u);
}

}  // namespace
