// Chunk-codec stage: LZ-class block codec + the CodecStorage decorator.
// Layout and trust-boundary rules are specified in codec.h and
// docs/FORMAT.md ("Chunk codec"); keep the three in sync.
#include "pfs/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>

#include "util/crc32.h"
#include "util/error.h"

namespace pcxx::pfs {
namespace {

constexpr char kFileMagic[8] = {'P', 'C', 'X', 'X', 'C', 'D', 'C', '1'};
constexpr std::uint32_t kFrameMagic = 0x46444350u;  // "PCDF" little-endian
constexpr std::uint32_t kCodecVersion = 1;
constexpr std::uint32_t kMaxBaseNameBytes = 4096;
constexpr std::uint32_t kMinChunkBytes = 64;
constexpr std::uint32_t kMaxChunkBytes = 1u << 30;
constexpr std::uint8_t kKindData = 0;
constexpr std::uint8_t kKindRef = 1;
constexpr std::uint16_t kFrameFlagBaseRef = 0x0001;

thread_local CodecThreadStats g_codecTls;
thread_local int g_codecClockDepth = 0;

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Charges the wall time of the outermost live scope on this thread to
/// CodecThreadStats::seconds. Nested scopes (a ref resolving through its
/// target, a dedup probe reading its candidate) are absorbed by the outer
/// one, so no codec second is counted twice.
class CodecClock {
 public:
  CodecClock()
      : outer_(g_codecClockDepth++ == 0), t0_(outer_ ? nowSeconds() : 0.0) {}
  ~CodecClock() {
    --g_codecClockDepth;
    if (outer_) g_codecTls.seconds += nowSeconds() - t0_;
  }
  CodecClock(const CodecClock&) = delete;
  CodecClock& operator=(const CodecClock&) = delete;

 private:
  bool outer_;
  double t0_;
};

std::uint64_t fnv1a64(std::span<const Byte> data) {
  std::uint64_t h = 14695981039346656037ull;
  for (const Byte b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Reads exactly out.size() bytes or reports failure (EOF short read).
bool readExact(StorageBackend& s, std::uint64_t offset, std::span<Byte> out) {
  return s.readAt(offset, out) == out.size();
}

bool sameBytes(std::span<const Byte> a, std::span<const Byte> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

const CodecThreadStats& codecThreadStats() { return g_codecTls; }

// ---------------------------------------------------------------------------
// LZ-class block codec.
//
// Token stream, LZ4-flavored: each sequence is one token byte — high nibble
// literal length, low nibble (match length - 4) — each nibble extended by
// 255-run bytes when saturated, then the literals, then (unless the stream
// ends after the literals) a 2-byte little-endian match offset into the
// already-decoded output. Minimum match 4, maximum offset 65535.
// ---------------------------------------------------------------------------

namespace {

/// Output room lzCompressTo may use for an n-byte input. Every match
/// sequence emits at most its literals, their 255-run bytes and one byte
/// less than its match covers, so even the early-exit stream stays below
/// n + n/255 + 2.
constexpr std::size_t lzBound(std::size_t n) { return n + n / 255 + 16; }

/// The LZ parse behind lzCompress, emitting through a pointer into `dst`
/// (room for lzBound(src.size()) bytes). Sets `written` to the bytes
/// emitted and returns true when they are fewer than src.size(). The
/// parse — greedy, 13-bit multiplicative hash of 4 bytes, table updated
/// only at positions the scan visits, early exit once the output reaches
/// the input size — is part of the stored format's reproducibility: the
/// golden test in tests/pfs/lz_golden_test.cpp pins its exact output.
bool lzCompressTo(std::span<const Byte> src, Byte* dst, std::size_t& written) {
  written = 0;
  const std::size_t n = src.size();
  if (n < 16) return false;  // token overhead can't win on tiny inputs

  constexpr unsigned kHashBits = 13;
  constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;
  std::array<std::uint32_t, std::size_t{1} << kHashBits> table;
  table.fill(kNoPos);
  const Byte* const s = src.data();
  Byte* op = dst;
  const auto load32 = [s](std::size_t i) {
    std::uint32_t v;
    std::memcpy(&v, s + i, 4);
    return v;
  };
  const auto emitRun = [&op](std::size_t len) {
    for (; len >= 255; len -= 255) *op++ = Byte{255};
    *op++ = static_cast<Byte>(len);
  };
  const auto emitSeq = [&](std::size_t litStart, std::size_t litLen,
                           std::size_t matchOff, std::size_t matchLen) {
    const std::size_t litTok = litLen < 15 ? litLen : 15;
    const std::size_t mTok =
        matchLen == 0 ? 0 : std::min<std::size_t>(matchLen - 4, 15);
    *op++ = static_cast<Byte>((litTok << 4) | mTok);
    if (litTok == 15) emitRun(litLen - 15);
    std::memcpy(op, s + litStart, litLen);
    op += litLen;
    if (matchLen != 0) {
      *op++ = static_cast<Byte>(matchOff & 0xFF);
      *op++ = static_cast<Byte>((matchOff >> 8) & 0xFF);
      if (mTok == 15) emitRun(matchLen - 4 - 15);
    }
  };
  /// Length of the common run of s[a..] and s[b..] (a < b), starting from
  /// a known `len`, compared eight bytes at a time.
  const auto extend = [s, n](std::size_t a, std::size_t b, std::size_t len) {
    while (b + len + 8 <= n) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, s + a + len, 8);
      std::memcpy(&y, s + b + len, 8);
      if (const std::uint64_t diff = x ^ y; diff != 0) {
        const int bit = std::endian::native == std::endian::little
                            ? std::countr_zero(diff)
                            : std::countl_zero(diff);
        return len + static_cast<std::size_t>(bit / 8);
      }
      len += 8;
    }
    while (b + len < n && s[a + len] == s[b + len]) ++len;
    return len;
  };

  std::size_t i = 0;
  std::size_t anchor = 0;
  const std::size_t mflimit = n - 4;  // last position a 4-byte match can start
  while (i < mflimit) {
    const std::uint32_t v = load32(i);
    const std::uint32_t h = (v * 2654435761u) >> (32u - kHashBits);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand != kNoPos && i - cand <= 65535 && load32(cand) == v) {
      const std::size_t len = extend(cand, i, 4);
      emitSeq(anchor, i - anchor, i - cand, len);
      i += len;
      anchor = i;
      if (static_cast<std::size_t>(op - dst) >= n) {  // not winning; store raw
        written = static_cast<std::size_t>(op - dst);
        return false;
      }
    } else {
      ++i;
    }
  }
  emitSeq(anchor, n - anchor, 0, 0);
  written = static_cast<std::size_t>(op - dst);
  return written < n;
}

}  // namespace

bool lzCompress(std::span<const Byte> src, ByteBuffer& out) {
  out.resize(lzBound(src.size()));
  std::size_t written = 0;
  const bool packed = lzCompressTo(src, out.data(), written);
  out.resize(written);
  return packed;
}

ByteBuffer lzDecompress(std::span<const Byte> src, std::uint64_t rawBytes) {
  ByteBuffer out;
  out.reserve(static_cast<std::size_t>(rawBytes));
  std::size_t i = 0;
  const auto need = [&](std::size_t k) {
    if (k > src.size() - i) throw FormatError("lz: truncated stream");
  };
  const auto readRun = [&](std::size_t base) {
    std::size_t len = base;
    if (base == 15) {
      for (;;) {
        need(1);
        const Byte b = src[i++];
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };
  while (i < src.size()) {
    const Byte tok = src[i++];
    const std::size_t lit = readRun(tok >> 4);
    need(lit);
    if (lit > rawBytes - out.size()) throw FormatError("lz: output overflow");
    out.insert(out.end(), src.begin() + i, src.begin() + i + lit);
    i += lit;
    if (i == src.size()) break;  // final sequence carries literals only
    need(2);
    const std::size_t off =
        std::size_t{src[i]} | (std::size_t{src[i + 1]} << 8);
    i += 2;
    if (off == 0 || off > out.size())
      throw FormatError("lz: bad match offset");
    const std::size_t mlen = readRun(tok & 0x0F) + 4;
    if (mlen > rawBytes - out.size()) throw FormatError("lz: output overflow");
    for (std::size_t k = 0; k < mlen; ++k)  // byte-wise: overlap is legal
      out.push_back(out[out.size() - off]);
  }
  if (out.size() != rawBytes) throw FormatError("lz: size mismatch");
  return out;
}

// ---------------------------------------------------------------------------
// File and frame header codecs.
// ---------------------------------------------------------------------------

namespace {

struct FileHeader {
  std::uint32_t chunkBytes = 0;
  std::uint32_t defaultCodec = 0;
  std::string baseName;
};

/// Decodes + validates the 32-byte fixed header (not the base name).
/// Returns false on anything that is not an intact codec header.
bool decodeFileHeader(StorageBackend& inner, FileHeader& out) {
  Byte h[CodecStorage::kFileHeaderBytes];
  if (!readExact(inner, 0, std::span<Byte>(h, sizeof h))) return false;
  if (std::memcmp(h, kFileMagic, sizeof kFileMagic) != 0) return false;
  if (decodeU32(h + 8) != kCodecVersion) return false;
  if (decodeU32(h + 12) != 0) return false;  // unknown flags -> not framed
  if (decodeU32(h + 28) != crc32(std::span<const Byte>(h, 28))) return false;
  out.chunkBytes = decodeU32(h + 16);
  out.defaultCodec = decodeU32(h + 20);
  const std::uint32_t nameBytes = decodeU32(h + 24);
  if (out.chunkBytes < kMinChunkBytes || out.chunkBytes > kMaxChunkBytes)
    return false;
  if (out.defaultCodec > static_cast<std::uint32_t>(CodecId::Lz)) return false;
  if (nameBytes > kMaxBaseNameBytes) return false;
  out.baseName.clear();
  if (nameBytes != 0) {
    ByteBuffer name(nameBytes);
    if (!readExact(inner, sizeof h, std::span<Byte>(name))) return false;
    out.baseName.assign(reinterpret_cast<const char*>(name.data()),
                        name.size());
  }
  return true;
}

void writeFileHeader(StorageBackend& inner, const CodecSpec& spec) {
  ByteBuffer buf(CodecStorage::kFileHeaderBytes + spec.dedupBase.size());
  std::memcpy(buf.data(), kFileMagic, sizeof kFileMagic);
  encodeU32(kCodecVersion, buf.data() + 8);
  encodeU32(0, buf.data() + 12);
  encodeU32(spec.chunkBytes, buf.data() + 16);
  encodeU32(static_cast<std::uint32_t>(spec.codec), buf.data() + 20);
  encodeU32(static_cast<std::uint32_t>(spec.dedupBase.size()),
            buf.data() + 24);
  encodeU32(crc32(std::span<const Byte>(buf.data(), 28)), buf.data() + 28);
  std::memcpy(buf.data() + CodecStorage::kFileHeaderBytes,
              spec.dedupBase.data(), spec.dedupBase.size());
  inner.writeAt(0, buf);
}

}  // namespace

struct CodecStorage::Frame {
  std::uint8_t kind = kKindData;
  std::uint8_t codecId = 0;
  std::uint16_t flags = 0;
  std::uint64_t chunkIndex = 0;
  std::uint32_t rawBytes = 0;
  std::uint32_t storedBytes = 0;
  std::uint64_t contentHash = 0;
  std::uint32_t payloadCrc = 0;

  void encode(Byte* out) const {
    encodeU32(kFrameMagic, out);
    out[4] = kind;
    out[5] = codecId;
    out[6] = static_cast<Byte>(flags & 0xFF);
    out[7] = static_cast<Byte>(flags >> 8);
    encodeU64(chunkIndex, out + 8);
    encodeU32(rawBytes, out + 16);
    encodeU32(storedBytes, out + 20);
    encodeU64(contentHash, out + 24);
    encodeU32(payloadCrc, out + 32);
    encodeU32(crc32(std::span<const Byte>(out, 36)), out + 36);
  }
};

// ---------------------------------------------------------------------------
// CodecStorage.
// ---------------------------------------------------------------------------

CodecStorage::CodecStorage(std::shared_ptr<StorageBackend> inner,
                           CodecSpec spec, std::uint64_t headerBytes,
                           std::shared_ptr<CodecStorage> base)
    : inner_(std::move(inner)),
      spec_(std::move(spec)),
      headerBytes_(headerBytes),
      base_(std::move(base)) {
  if (base_ != nullptr && base_->spec_.chunkBytes == spec_.chunkBytes)
    baseHash_ = base_->ownHash_;  // full sealed data frames only
}

bool CodecStorage::isFramed(StorageBackend& inner) {
  FileHeader h;
  return decodeFileHeader(inner, h);
}

std::string CodecStorage::baseNameOf(StorageBackend& inner) {
  FileHeader h;
  if (!decodeFileHeader(inner, h)) return "";
  return h.baseName;
}

std::shared_ptr<CodecStorage> CodecStorage::create(
    std::shared_ptr<StorageBackend> inner, const CodecSpec& spec,
    std::shared_ptr<StorageBackend> baseInner) {
  PCXX_REQUIRE(spec.chunkBytes >= kMinChunkBytes &&
                   spec.chunkBytes <= kMaxChunkBytes,
               "codec chunkBytes out of range");
  PCXX_REQUIRE(spec.dedupBase.size() <= kMaxBaseNameBytes,
               "codec dedup base name too long");
  std::shared_ptr<CodecStorage> base;
  if (baseInner != nullptr && isFramed(*baseInner)) {
    try {
      base = attach(std::move(baseInner), nullptr);
    } catch (const FormatError&) {
      base = nullptr;  // a damaged base just contributes no dedup targets
    }
  }
  inner->truncate(0);
  writeFileHeader(*inner, spec);
  const std::uint64_t headerBytes = kFileHeaderBytes + spec.dedupBase.size();
  return std::shared_ptr<CodecStorage>(new CodecStorage(
      std::move(inner), spec, headerBytes, std::move(base)));
}

std::shared_ptr<CodecStorage> CodecStorage::attach(
    std::shared_ptr<StorageBackend> inner,
    std::shared_ptr<StorageBackend> baseInner) {
  FileHeader h;
  if (!decodeFileHeader(*inner, h))
    throw FormatError("codec: file header is not intact");
  CodecSpec spec;
  spec.enabled = true;
  spec.codec = static_cast<CodecId>(h.defaultCodec);
  spec.chunkBytes = h.chunkBytes;
  spec.dedupBase = h.baseName;
  std::shared_ptr<CodecStorage> base;
  if (baseInner != nullptr && isFramed(*baseInner)) {
    try {
      base = attach(std::move(baseInner), nullptr);
    } catch (const FormatError&) {
      base = nullptr;
    }
  }
  const std::uint64_t headerBytes = kFileHeaderBytes + h.baseName.size();
  auto self = std::shared_ptr<CodecStorage>(new CodecStorage(
      std::move(inner), std::move(spec), headerBytes, std::move(base)));
  self->scanExisting();
  return self;
}

void CodecStorage::scanExisting() {
  const std::uint64_t innerSize = inner_->size();
  const std::uint64_t c = spec_.chunkBytes;
  std::uint64_t logical = 0;
  for (std::uint64_t i = 0; frameOffset(i) < innerSize; ++i) {
    Frame f;
    switch (readFrame(i, f)) {
      case FrameState::Absent:
        break;
      case FrameState::Damaged:
        // rawBytes is untrustworthy; assume a full chunk so the zeros it
        // reads as stay inside the logical extent for the record layer.
        logical = std::max(logical, i * c + c);
        break;
      case FrameState::Valid: {
        logical = std::max(logical, i * c + f.rawBytes);
        if (f.kind == kKindData && f.rawBytes == c) {
          if (ownHash_.emplace(f.contentHash, i).second)
            hashByChunk_.emplace(i, f.contentHash);
        } else if (f.kind == kKindRef && (f.flags & kFrameFlagBaseRef) == 0) {
          Byte p[8];
          if (readExact(*inner_, frameOffset(i) + kFrameHeaderBytes,
                        std::span<Byte>(p, sizeof p)) &&
              crc32(std::span<const Byte>(p, sizeof p)) == f.payloadCrc) {
            const std::uint64_t target = decodeU64(p);
            refsByTarget_.emplace(target, i);
            refTargetByChunk_.emplace(i, target);
          }
        }
        break;
      }
    }
  }
  logicalSize_ = logical;
}

CodecStorage::FrameState CodecStorage::readFrame(std::uint64_t index,
                                                 Frame& f) {
  Byte h[kFrameHeaderBytes];
  const std::uint64_t got =
      inner_->readAt(frameOffset(index), std::span<Byte>(h, sizeof h));
  if (got < sizeof h) return FrameState::Absent;  // short only at EOF
  bool allZero = true;
  for (const Byte b : h) {
    if (b != 0) {
      allZero = false;
      break;
    }
  }
  if (allZero) return FrameState::Absent;  // hole inside the file
  if (decodeU32(h) != kFrameMagic) return FrameState::Damaged;
  if (decodeU32(h + 36) != crc32(std::span<const Byte>(h, 36)))
    return FrameState::Damaged;
  f.kind = h[4];
  f.codecId = h[5];
  f.flags = static_cast<std::uint16_t>(h[6]) |
            (static_cast<std::uint16_t>(h[7]) << 8);
  f.chunkIndex = decodeU64(h + 8);
  f.rawBytes = decodeU32(h + 16);
  f.storedBytes = decodeU32(h + 20);
  f.contentHash = decodeU64(h + 24);
  f.payloadCrc = decodeU32(h + 32);
  if (f.chunkIndex != index) return FrameState::Damaged;  // relocated frame
  if (f.rawBytes == 0 || f.rawBytes > spec_.chunkBytes)
    return FrameState::Damaged;
  if (f.kind == kKindData) {
    if (f.codecId > static_cast<std::uint8_t>(CodecId::Lz))
      return FrameState::Damaged;
    if (f.storedBytes == 0 || f.storedBytes > spec_.chunkBytes)
      return FrameState::Damaged;
    if (f.codecId == static_cast<std::uint8_t>(CodecId::Raw) &&
        f.storedBytes != f.rawBytes)
      return FrameState::Damaged;
  } else if (f.kind == kKindRef) {
    if (f.storedBytes != 8) return FrameState::Damaged;
    if (f.rawBytes != spec_.chunkBytes) return FrameState::Damaged;
  } else {
    return FrameState::Damaged;
  }
  return FrameState::Valid;
}

ByteBuffer CodecStorage::chunkContent(std::uint64_t index, bool followRef) {
  const std::uint64_t c = spec_.chunkBytes;
  const auto damaged = [&]() {
    ++g_codecTls.damagedChunks;
    return ByteBuffer(static_cast<std::size_t>(c), 0);
  };

  Frame f;
  switch (readFrame(index, f)) {
    case FrameState::Absent:
      return ByteBuffer(static_cast<std::size_t>(c), 0);  // a hole, not damage
    case FrameState::Damaged:
      return damaged();
    case FrameState::Valid:
      break;
  }

  ByteBuffer payload(f.storedBytes);
  if (!readExact(*inner_, frameOffset(index) + kFrameHeaderBytes, payload))
    return damaged();  // payload torn off at EOF
  const CodecClock clock;  // resolve: CRC check, decode, ref re-hash
  // Trust boundary: the payload CRC is verified BEFORE any payload byte is
  // interpreted — hostile bytes never reach the decoder or the ref target.
  if (crc32(payload) != f.payloadCrc) return damaged();

  if (f.kind == kKindRef) {
    const std::uint64_t target = decodeU64(payload.data());
    ByteBuffer content;
    if ((f.flags & kFrameFlagBaseRef) != 0) {
      content = baseChunkContent(target);
    } else {
      if (!followRef || target == index) return damaged();  // depth-1 only
      content = chunkContent(target, /*followRef=*/false);
    }
    // Re-verify the recorded content hash: a mutated or damaged target must
    // surface as detectable damage, never as silently wrong bytes.
    if (content.empty() || fnv1a64(content) != f.contentHash)
      return damaged();
    return content;
  }

  ByteBuffer content;
  if (f.codecId == static_cast<std::uint8_t>(CodecId::Raw)) {
    content = std::move(payload);
  } else {
    try {
      content = lzDecompress(payload, f.rawBytes);
    } catch (const FormatError&) {
      return damaged();
    }
  }
  if (content.size() != f.rawBytes) return damaged();
  content.resize(static_cast<std::size_t>(c), 0);  // zero-pad past rawBytes
  return content;
}

ByteBuffer CodecStorage::baseChunkContent(std::uint64_t index) {
  if (base_ == nullptr || base_->spec_.chunkBytes != spec_.chunkBytes)
    return {};
  // Lock order is strictly file -> base; a base never locks a derived
  // file, so this nesting cannot deadlock.
  std::lock_guard<std::mutex> lk(base_->mu_);
  return base_->chunkContent(index, /*followRef=*/false);
}

void CodecStorage::forgetChunkLocked(std::uint64_t index) {
  if (const auto it = hashByChunk_.find(index); it != hashByChunk_.end()) {
    if (const auto own = ownHash_.find(it->second);
        own != ownHash_.end() && own->second == index)
      ownHash_.erase(own);
    hashByChunk_.erase(it);
  }
  if (const auto it = refTargetByChunk_.find(index);
      it != refTargetByChunk_.end()) {
    const auto range = refsByTarget_.equal_range(it->second);
    for (auto r = range.first; r != range.second; ++r) {
      if (r->second == index) {
        refsByTarget_.erase(r);
        break;
      }
    }
    refTargetByChunk_.erase(it);
  }
}

void CodecStorage::materializeRefsTo(std::uint64_t target) {
  std::vector<std::uint64_t> refs;
  const auto range = refsByTarget_.equal_range(target);
  for (auto it = range.first; it != range.second; ++it)
    refs.push_back(it->second);
  for (const std::uint64_t r : refs) {
    // Resolve through the target's still-present content, then re-seal the
    // ref as an independent data frame before the target changes.
    ByteBuffer content = chunkContent(r, /*followRef=*/true);
    forgetChunkLocked(r);
    std::uint64_t hash = 0;
    {
      const CodecClock clock;
      hash = fnv1a64(content);
    }
    writeDataFrame(r, content, hash);
  }
}

void CodecStorage::writeDataFrame(std::uint64_t index,
                                  std::span<const Byte> content,
                                  std::uint64_t hash) {
  Frame f;
  f.kind = kKindData;
  f.chunkIndex = index;
  f.rawBytes = static_cast<std::uint32_t>(content.size());
  f.contentHash = hash;

  // Seal straight into the reused frame buffer: the payload is compressed
  // (or copied) in place behind the header it is sealed under.
  const std::size_t room = kFrameHeaderBytes + lzBound(content.size());
  if (frameBuf_.size() < room) frameBuf_.resize(room);
  Byte* const payload = frameBuf_.data() + kFrameHeaderBytes;
  {
    const CodecClock clock;  // seal: compress + payload CRC
    std::size_t stored = 0;
    const bool useLz = spec_.codec == CodecId::Lz &&
                       lzCompressTo(content, payload, stored);
    if (!useLz) {
      stored = content.size();
      std::memcpy(payload, content.data(), stored);
    }
    f.codecId = static_cast<std::uint8_t>(useLz ? CodecId::Lz : CodecId::Raw);
    f.storedBytes = static_cast<std::uint32_t>(stored);
    f.payloadCrc = crc32(std::span<const Byte>(payload, stored));
  }
  f.encode(frameBuf_.data());
  const std::span<const Byte> frame(frameBuf_.data(),
                                    kFrameHeaderBytes + f.storedBytes);
  // One contiguous write: header and payload land (or tear) together.
  inner_->writeAt(frameOffset(index), frame);
  g_codecTls.storedBytes += frame.size();

  if (f.rawBytes == spec_.chunkBytes && ownHash_.emplace(hash, index).second)
    hashByChunk_.emplace(index, hash);
}

void CodecStorage::writeChunk(std::uint64_t index,
                              std::span<const Byte> content) {
  // Own refs resolving through this chunk must become self-contained
  // before its bytes change; then this chunk's old nominations go away.
  materializeRefsTo(index);
  forgetChunkLocked(index);

  std::uint64_t hash = 0;
  std::uint64_t target = 0;
  bool haveOwn = false;
  bool haveBase = false;
  {
    const CodecClock clock;  // seal: the one content hash + dedup compare
    hash = fnv1a64(content);
    // Hashes only nominate; bytes decide. Bytes equal to content already
    // sealed under `hash` carry that hash, so a match needs no re-hash.
    if (content.size() == spec_.chunkBytes) {
      if (const auto it = ownHash_.find(hash);
          it != ownHash_.end() && it->second != index &&
          sameBytes(chunkContent(it->second, /*followRef=*/false), content)) {
        target = it->second;
        haveOwn = true;
      } else if (const auto b = baseHash_.find(hash);
                 b != baseHash_.end() &&
                 sameBytes(baseChunkContent(b->second), content)) {
        target = b->second;
        haveBase = true;
      }
    }
  }
  if (!haveOwn && !haveBase) {
    writeDataFrame(index, content, hash);
    return;
  }
  Frame f;
  f.kind = kKindRef;
  f.flags = haveBase ? kFrameFlagBaseRef : 0;
  f.chunkIndex = index;
  f.rawBytes = spec_.chunkBytes;
  f.storedBytes = 8;
  f.contentHash = hash;
  std::array<Byte, kFrameHeaderBytes + 8> frame{};
  encodeU64(target, frame.data() + kFrameHeaderBytes);
  f.payloadCrc =
      crc32(std::span<const Byte>(frame.data() + kFrameHeaderBytes, 8));
  f.encode(frame.data());
  inner_->writeAt(frameOffset(index), frame);
  g_codecTls.storedBytes += frame.size();
  ++g_codecTls.dedupHits;
  if (haveOwn) {
    refsByTarget_.emplace(target, index);
    refTargetByChunk_.emplace(index, target);
  }
}

void CodecStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  if (data.empty()) return;
  const std::uint64_t c = spec_.chunkBytes;
  std::lock_guard<std::mutex> lk(mu_);
  g_codecTls.rawBytes += data.size();
  const std::uint64_t end = offset + data.size();
  const std::uint64_t newLogical = std::max(logicalSize_, end);
  std::uint64_t pos = offset;
  while (pos < end) {
    const std::uint64_t idx = pos / c;
    const std::uint64_t chunkStart = idx * c;
    const std::uint64_t segEnd = std::min(end, chunkStart + c);
    const std::size_t segLen = static_cast<std::size_t>(segEnd - pos);
    const std::size_t inChunk = static_cast<std::size_t>(pos - chunkStart);
    // rawBytes must cover every logical byte the chunk holds after this
    // write — including bytes owned by OTHER nodes' earlier writes.
    const std::uint32_t raw =
        static_cast<std::uint32_t>(std::min(c, newLogical - chunkStart));
    if (inChunk == 0 && segLen == raw) {
      writeChunk(idx, data.subspan(static_cast<std::size_t>(pos - offset),
                                   segLen));
    } else {
      ByteBuffer cur = chunkContent(idx, /*followRef=*/true);
      std::memcpy(cur.data() + inChunk,
                  data.data() + static_cast<std::size_t>(pos - offset),
                  segLen);
      writeChunk(idx, std::span<const Byte>(cur.data(), raw));
    }
    pos = segEnd;
  }
  logicalSize_ = newLogical;
}

std::uint64_t CodecStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  if (out.empty()) return 0;
  const std::uint64_t c = spec_.chunkBytes;
  std::lock_guard<std::mutex> lk(mu_);
  if (offset >= logicalSize_) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(),
                                                  logicalSize_ - offset);
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + n;
  while (pos < end) {
    const std::uint64_t idx = pos / c;
    const std::uint64_t chunkStart = idx * c;
    const std::uint64_t segEnd = std::min(end, chunkStart + c);
    const std::size_t segLen = static_cast<std::size_t>(segEnd - pos);
    const ByteBuffer content = chunkContent(idx, /*followRef=*/true);
    std::memcpy(out.data() + static_cast<std::size_t>(pos - offset),
                content.data() + static_cast<std::size_t>(pos - chunkStart),
                segLen);
    pos = segEnd;
  }
  return n;
}

std::uint64_t CodecStorage::size() {
  std::lock_guard<std::mutex> lk(mu_);
  return logicalSize_;
}

void CodecStorage::truncate(std::uint64_t newSize) {
  const std::uint64_t c = spec_.chunkBytes;
  std::lock_guard<std::mutex> lk(mu_);
  if (newSize == logicalSize_) return;
  if (newSize > logicalSize_) {
    // Extend with zeros (MemStorage resize-grow semantics): pin the new
    // size by re-sealing the new tail chunk; intermediate chunks stay
    // holes and read as zeros.
    const std::uint64_t tail = (newSize - 1) / c;
    ByteBuffer content = chunkContent(tail, /*followRef=*/true);
    const std::uint32_t raw =
        static_cast<std::uint32_t>(std::min(c, newSize - tail * c));
    writeChunk(tail, std::span<const Byte>(content.data(), raw));
    logicalSize_ = newSize;
    return;
  }
  const std::uint64_t newCount = newSize == 0 ? 0 : (newSize - 1) / c + 1;
  // Refs are not ordered by index, so a surviving ref may target a chunk
  // being dropped — make those survivors self-contained first.
  std::vector<std::uint64_t> doomedTargets;
  for (const auto& [target, ref] : refsByTarget_) {
    if (target >= newCount && ref < newCount) doomedTargets.push_back(target);
  }
  std::sort(doomedTargets.begin(), doomedTargets.end());
  doomedTargets.erase(
      std::unique(doomedTargets.begin(), doomedTargets.end()),
      doomedTargets.end());
  for (const std::uint64_t t : doomedTargets) materializeRefsTo(t);
  std::vector<std::uint64_t> dropped;
  for (const auto& [idx, hash] : hashByChunk_) {
    (void)hash;
    if (idx >= newCount) dropped.push_back(idx);
  }
  for (const auto& [idx, target] : refTargetByChunk_) {
    (void)target;
    if (idx >= newCount) dropped.push_back(idx);
  }
  for (const std::uint64_t idx : dropped) forgetChunkLocked(idx);
  inner_->truncate(newCount == 0 ? headerBytes_ : frameOffset(newCount));
  logicalSize_ = newSize;
  if (newSize != 0) {
    // Re-seal the tail so its rawBytes matches the shrunk size (also
    // covers a tail that was a hole: the zero frame pins the size for
    // a later attach()).
    const std::uint64_t tail = newCount - 1;
    ByteBuffer content = chunkContent(tail, /*followRef=*/true);
    const std::uint32_t raw = static_cast<std::uint32_t>(newSize - tail * c);
    writeChunk(tail, std::span<const Byte>(content.data(), raw));
  }
}

void CodecStorage::sync() { inner_->sync(); }

std::shared_ptr<StorageBackend> wrapCodecIfFramed(
    std::shared_ptr<StorageBackend> storage,
    const std::function<std::shared_ptr<StorageBackend>(const std::string&)>&
        resolveBase) {
  if (storage == nullptr || !CodecStorage::isFramed(*storage)) return storage;
  std::shared_ptr<StorageBackend> baseInner;
  if (resolveBase) {
    const std::string baseName = CodecStorage::baseNameOf(*storage);
    if (!baseName.empty()) baseInner = resolveBase(baseName);
  }
  return CodecStorage::attach(std::move(storage), std::move(baseInner));
}

}  // namespace pcxx::pfs
