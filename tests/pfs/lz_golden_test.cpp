// Golden test of the LZ parse: pfs::lzCompress must emit exactly the token
// stream (and return value) of the reference parse frozen below, on every
// input class the chunk codec meets and on the edges of the token format.
// Stored chunk bytes are a function of this parse, so any encoder change
// that moves a byte fails here before it can move a stored byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/pfs/codec.h"
#include "src/runtime/machine.h"
#include "src/scf/segment.h"
#include "src/scf/workload.h"

namespace {

using namespace pcxx;

// The reference parse, frozen: greedy, 13-bit multiplicative hash of the
// next 4 bytes, table updated only at scanned positions, byte-wise match
// extension, early exit once the output reaches the input size. Do not
// "optimize" this copy; it is the oracle.
bool referenceLzCompress(std::span<const Byte> src, ByteBuffer& out) {
  out.clear();
  const std::size_t n = src.size();
  if (n < 16) return false;

  constexpr unsigned kHashBits = 13;
  constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, kNoPos);
  const auto hash4 = [&](std::size_t i) {
    std::uint32_t v;
    std::memcpy(&v, src.data() + i, 4);
    return (v * 2654435761u) >> (32u - kHashBits);
  };
  const auto emitRun = [&](std::size_t len) {
    while (len >= 255) {
      out.push_back(Byte{255});
      len -= 255;
    }
    out.push_back(static_cast<Byte>(len));
  };
  const auto emitSeq = [&](std::size_t litStart, std::size_t litLen,
                           std::size_t matchOff, std::size_t matchLen) {
    const std::size_t litTok = litLen < 15 ? litLen : 15;
    const std::size_t mTok =
        matchLen == 0 ? 0 : std::min<std::size_t>(matchLen - 4, 15);
    out.push_back(static_cast<Byte>((litTok << 4) | mTok));
    if (litTok == 15) emitRun(litLen - 15);
    out.insert(out.end(), src.begin() + litStart,
               src.begin() + litStart + litLen);
    if (matchLen != 0) {
      out.push_back(static_cast<Byte>(matchOff & 0xFF));
      out.push_back(static_cast<Byte>((matchOff >> 8) & 0xFF));
      if (mTok == 15) emitRun(matchLen - 4 - 15);
    }
  };

  out.reserve(n);
  std::size_t i = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - 4;
  while (i < mflimit) {
    const auto h = hash4(i);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand != kNoPos && i - cand <= 65535 &&
        std::memcmp(src.data() + cand, src.data() + i, 4) == 0) {
      std::size_t len = 4;
      while (i + len < n && src[cand + len] == src[i + len]) ++len;
      emitSeq(anchor, i - anchor, i - cand, len);
      i += len;
      anchor = i;
      if (out.size() >= n) return false;
    } else {
      ++i;
    }
  }
  emitSeq(anchor, n - anchor, 0, 0);
  return out.size() < n;
}

ByteBuffer randomBytes(std::size_t n, std::uint64_t seed) {
  ByteBuffer out(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : out) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<Byte>(s >> 56);
  }
  return out;
}

// Doubles g % 17 (the codec ablation's fill): short-period, compressible.
ByteBuffer mod17Bytes(std::size_t count) {
  ByteBuffer out(count * sizeof(double));
  for (std::size_t g = 0; g < count; ++g) {
    const double v = static_cast<double>(g % 17);
    std::memcpy(out.data() + g * sizeof(double), &v, sizeof v);
  }
  return out;
}

// SCF segment payload (count, then seven arrays of doubles) of a Plummer
// sphere fill, concatenated in global order.
ByteBuffer plummerBytes(std::int64_t segments, int particles) {
  ByteBuffer out;
  rt::Machine machine(1);
  machine.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(segments, &P, coll::DistKind::Block);
    coll::Collection<scf::Segment> data(&d);
    scf::fillPlummer(data, particles, 7);
    data.forEachLocal([&](scf::Segment& seg, std::int64_t) {
      const auto put = [&out](const void* p, std::size_t bytes) {
        const auto* b = static_cast<const Byte*>(p);
        out.insert(out.end(), b, b + bytes);
      };
      put(&seg.numberOfParticles, sizeof seg.numberOfParticles);
      const std::size_t arr = sizeof(double) * seg.numberOfParticles;
      for (const double* a :
           {seg.x, seg.y, seg.z, seg.vx, seg.vy, seg.vz, seg.mass})
        put(a, arr);
    });
  });
  return out;
}

void expectGolden(std::span<const Byte> src, const std::string& what) {
  ByteBuffer want;
  ByteBuffer got;
  const bool wantPacked = referenceLzCompress(src, want);
  const bool gotPacked = pfs::lzCompress(src, got);
  ASSERT_EQ(gotPacked, wantPacked) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_TRUE(got == want) << what << ": token streams differ";
  if (gotPacked) {
    EXPECT_TRUE(pfs::lzDecompress(got, src.size()) ==
                ByteBuffer(src.begin(), src.end()))
        << what << ": round trip";
  }
}

void expectGoldenChunks(const ByteBuffer& bytes, std::size_t chunk,
                        const std::string& what) {
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    const std::size_t len = std::min(chunk, bytes.size() - off);
    expectGolden(std::span<const Byte>(bytes).subspan(off, len),
                 what + " @" + std::to_string(off));
  }
}

constexpr std::size_t kChunk = 64 * 1024;

TEST(LzGolden, PlummerSegmentChunks) {
  const ByteBuffer bytes = plummerBytes(256, 100);
  ASSERT_GT(bytes.size(), 20 * kChunk);
  expectGoldenChunks(bytes, kChunk, "plummer");
}

TEST(LzGolden, Mod17ZerosAndRandomChunks) {
  expectGoldenChunks(mod17Bytes(3 * kChunk / sizeof(double)), kChunk, "g%17");
  expectGoldenChunks(ByteBuffer(2 * kChunk, Byte{0}), kChunk, "zeros");
  expectGoldenChunks(randomBytes(2 * kChunk, 3), kChunk, "random");
}

TEST(LzGolden, LengthEdges) {
  const ByteBuffer mod17 = mod17Bytes(kChunk / 4);
  const ByteBuffer zeros(kChunk + 8, Byte{0});
  const ByteBuffer noise = randomBytes(kChunk + 8, 11);
  for (const std::size_t n : {std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{18},
                              std::size_t{19}, std::size_t{20},
                              std::size_t{65535}, std::size_t{65536},
                              std::size_t{65537}}) {
    for (const ByteBuffer* src : {&mod17, &zeros, &noise}) {
      ASSERT_GE(src->size(), n);
      expectGolden(std::span<const Byte>(*src).first(n),
                   "len " + std::to_string(n));
    }
  }
}

// Literal runs and match lengths on both sides of the 255-run extension:
// a literal run needs run bytes from 15 + 255 = 270 on, a match from
// 4 + 15 + 255 = 274 on.
TEST(LzGolden, RunExtensions) {
  for (const std::size_t lit : {269u, 270u, 271u, 524u, 525u, 526u, 800u}) {
    for (const std::size_t match : {273u, 274u, 275u, 528u, 529u, 530u}) {
      ByteBuffer src = randomBytes(lit, lit * 31 + match);
      // Repeat the literals with period `lit` for `match` bytes, then break
      // the match with a byte that differs from its would-be continuation.
      for (std::size_t k = 0; k < match; ++k) src.push_back(src[k]);
      src.push_back(static_cast<Byte>(src[match] ^ 0xFF));
      const ByteBuffer tail = randomBytes(40, match);
      src.insert(src.end(), tail.begin(), tail.end());
      expectGolden(src, "lit " + std::to_string(lit) + " match " +
                            std::to_string(match));
    }
  }
  // Long runs of a single repeated block: matches thousands of bytes long.
  ByteBuffer block = randomBytes(64, 5);
  ByteBuffer longMatch;
  for (int r = 0; r < 200; ++r)
    longMatch.insert(longMatch.end(), block.begin(), block.end());
  expectGolden(longMatch, "long match");
}

// A marker repeated exactly 65535 bytes later may match (largest offset);
// 65536 bytes later it may not. Zeros in between keep the marker's hash
// slot untouched, so the offset really is probed.
TEST(LzGolden, OffsetEdges) {
  const ByteBuffer marker = {Byte{0x5A}, Byte{0xC3}, Byte{0x17}, Byte{0x99},
                             Byte{0x42}, Byte{0xE1}, Byte{0x08}, Byte{0x7F}};
  for (const std::size_t off : {65534u, 65535u, 65536u}) {
    ByteBuffer src(off + marker.size() + 32, Byte{0});
    std::copy(marker.begin(), marker.end(), src.begin());
    std::copy(marker.begin(), marker.end(), src.begin() + off);
    expectGolden(src, "offset " + std::to_string(off));
    ByteBuffer packed;
    ASSERT_TRUE(pfs::lzCompress(src, packed));
    // A second literal copy of the marker means it did not match back.
    int copies = 0;
    for (auto it = packed.begin();
         (it = std::search(it, packed.end(), marker.begin(), marker.end())) !=
         packed.end();
         ++it)
      ++copies;
    EXPECT_EQ(copies, off <= 65535 ? 1 : 2) << off;
  }
}

// A match that extends to the very last input byte (no final literals).
TEST(LzGolden, MatchRunsToLastByte) {
  for (const std::size_t len : {16u, 40u, 100u, 1000u, 4099u}) {
    ByteBuffer src = randomBytes(len, len);
    for (std::size_t k = 0; k < len; ++k) src.push_back(src[k]);
    expectGolden(src, "tail match " + std::to_string(len));
  }
}

}  // namespace
