// Chunk-codec stage for the pfs layer: transparent compression + dedup.
//
// CodecStorage is a StorageBackend DECORATOR that sits between
// pfs::ParallelFile and the real byte store (MemStorage / PosixStorage).
// The logical byte space every upper layer sees — record offsets, index
// footers, salvage truncation points, the perf model's size argument — is
// unchanged; only the bytes moved through the inner backend shrink. Because
// the wrapper lives BELOW ParallelFile, fault hooks, RetryPolicy,
// CrashInjected durable-prefix semantics and FaultPlan op indices are all
// untouched: a hook-granted prefix of k logical bytes is applied through
// the codec in full before control returns, exactly like the raw path.
// (De)compression runs on whatever thread issues the storage op, so the
// pcxx::aio flusher/prefetcher threads do the codec work off the node's
// critical path for free.
//
// Physical layout (all integers little-endian):
//
//   FileHeader (32 bytes + baseName):
//     0   u8[8]  magic          "PCXXCDC1"
//     8   u32    version        1
//     12  u32    flags          0 (reserved; unknown flags -> not framed)
//     16  u32    chunkBytes     logical chunk size C
//     20  u32    defaultCodec   CodecId the writer prefers
//     24  u32    baseNameBytes  dedup base file name length (0 = none)
//     28  u32    headerCrc32    CRC-32 of bytes [0, 28)
//     32  u8[baseNameBytes]     pfs name of the dedup base file
//
//   Frames at FIXED offsets — chunk i lives at
//       headerBytes + i * (kFrameHeaderBytes + C)
//   so any chunk is addressable in O(1) with no directory and no scan.
//   Each frame reserves C payload bytes; the stored payload occupies a
//   prefix of that region. The savings are therefore in bytes MOVED
//   through the backend (the bandwidth the paper's tables are bound by),
//   not in the file's apparent extent.
//
//   FrameHeader (40 bytes):
//     0   u32    frameMagic     "PCDF" (0x46444350)
//     4   u8     kind           0 = data, 1 = ref (dedup)
//     5   u8     codecId        0 = raw, 1 = lz (data frames)
//     6   u16    frameFlags     bit 0: ref targets the dedup BASE file
//     8   u64    chunkIndex     must equal the frame's own index
//     16  u32    rawBytes       logical bytes held by the chunk (<= C)
//     20  u32    storedBytes    payload bytes present after the header
//     24  u64    contentHash    FNV-1a-64 of the raw chunk content
//     32  u32    payloadCrc32   CRC-32 of the STORED payload bytes
//     36  u32    headerCrc32    CRC-32 of bytes [0, 36)
//
// Trust boundary: payloadCrc32 is verified on the compressed bytes BEFORE
// the decoder sees them, so hostile input never reaches the decompressor;
// the decoder itself is fully bounds-checked and its output length must
// equal rawBytes. Any violation (magic, header CRC, size bounds, payload
// CRC, decode mismatch, unresolvable ref) makes the chunk read as ZEROS
// and ticks the damaged-chunk counter — damage then surfaces at the
// d/stream record layer (header CRC / data CRC / framing) exactly like
// uncompressed bit rot, so salvage verdicts and --verify results stay
// byte-identical to the uncompressed path.
//
// Dedup (kind = ref): a full chunk whose content hash matches an already
// sealed DATA frame — in this file or in the named base file (the previous
// checkpoint epoch) — is stored as an 8-byte reference to that chunk. The
// writer hashes each chunk once; a hash match only NOMINATES the target,
// whose stored bytes (header and payload CRCs checked) are then compared
// in full, and that comparison alone decides. Refs only ever target data
// frames, so cross-file dependencies are depth-1; the READER re-verifies
// the target's content hash, so a mutated base surfaces as detectable
// damage, never silent corruption. Overwriting a chunk that own refs point
// at first materializes those refs as data frames.
//
// The LZ parse is fixed: for a given input lzCompress emits one exact token
// stream, so a chunk's stored bytes never depend on the build. The golden
// test tests/pfs/lz_golden_test.cpp (a frozen reference parse) is its
// contract; a faster encoder must reproduce it byte for byte.
//
// Honest caveat (documented in docs/FORMAT.md): with a codec active the
// torn-write damage unit of a REAL crash is the chunk — a tear mid-rewrite
// of a shared tail chunk can damage up to chunkBytes-1 previously durable
// bytes. Detection and skip at the record layer are unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfs/backend.h"

namespace pcxx::pfs {

/// Codec identifiers as stored in frame headers.
enum class CodecId : std::uint8_t {
  Raw = 0,  ///< stored bytes are the raw chunk content
  Lz = 1,   ///< LZ-class block compression (lzCompress/lzDecompress)
};

/// What a Create-mode open asks the file system to do about framing.
struct CodecSpec {
  /// false = plain file, byte-identical to the pre-codec format.
  bool enabled = false;
  CodecId codec = CodecId::Lz;
  /// Logical chunk size; larger chunks compress better, tear wider.
  std::uint32_t chunkBytes = 64 * 1024;
  /// pfs name of a file whose sealed chunks may be dedup targets
  /// (CheckpointManager wires the previous epoch here). Empty = off.
  std::string dedupBase;
};

/// Per-thread codec accounting. CodecStorage updates the calling thread's
/// slot; ParallelFile snapshots deltas around each storage op and folds
/// them into node metrics (sync paths) or BgIoStats (aio threads), keeping
/// the obs owner-write discipline intact. Values are monotone.
struct CodecThreadStats {
  std::uint64_t rawBytes = 0;      ///< logical bytes written through a codec
  std::uint64_t storedBytes = 0;   ///< frame header+payload bytes stored
  std::uint64_t dedupHits = 0;     ///< chunks written as ref frames
  std::uint64_t damagedChunks = 0; ///< chunk reads that fell back to zeros
  /// Wall seconds sealing and resolving chunks. Sealing is the content
  /// hash, the dedup byte comparison (candidate read included), compression
  /// and the payload CRC; resolving is the payload CRC check, decompression
  /// and a ref's content re-hash. Frame I/O to the inner store outside
  /// those steps is not counted.
  double seconds = 0.0;
};

/// The calling thread's codec counters (monotone; snapshot-and-diff).
const CodecThreadStats& codecThreadStats();

/// LZ-class block compression (LZ4-style token stream: literal/match
/// nibbles with 255-run extensions, 2-byte match offsets, min match 4).
/// Returns true and fills `out` when the encoding is strictly smaller than
/// `src`; returns false (out unspecified) for incompressible input. The
/// output is a fixed function of `src` (see "The LZ parse is fixed" above).
bool lzCompress(std::span<const Byte> src, ByteBuffer& out);

/// Bounds-checked decompression of `src` into exactly `rawBytes` output
/// bytes. Throws FormatError on any malformed input (never reads or
/// writes out of bounds). Safe on hostile input.
ByteBuffer lzDecompress(std::span<const Byte> src, std::uint64_t rawBytes);

/// The transparent chunk-codec decorator. All methods are thread-safe.
class CodecStorage final : public StorageBackend {
 public:
  static constexpr std::uint64_t kFileHeaderBytes = 32;
  static constexpr std::uint64_t kFrameHeaderBytes = 40;

  /// Does `inner` hold a codec-framed file (magic + intact header)?
  static bool isFramed(StorageBackend& inner);

  /// The dedup base name recorded in a framed file's header ("" if none
  /// or not framed).
  static std::string baseNameOf(StorageBackend& inner);

  /// Wrap a fresh (truncated) inner store: writes the codec file header.
  /// `baseInner` is the dedup base's raw store (may be null; must itself
  /// be codec-framed to contribute dedup targets).
  static std::shared_ptr<CodecStorage> create(
      std::shared_ptr<StorageBackend> inner, const CodecSpec& spec,
      std::shared_ptr<StorageBackend> baseInner);

  /// Wrap an existing framed file (scans frame headers once to recover
  /// the logical size and the dedup maps). Throws FormatError when the
  /// file header is not intact.
  static std::shared_ptr<CodecStorage> attach(
      std::shared_ptr<StorageBackend> inner,
      std::shared_ptr<StorageBackend> baseInner);

  // -- StorageBackend (logical byte space) ----------------------------------
  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override;

  const CodecSpec& spec() const { return spec_; }
  /// The raw store underneath (tests corrupt physical frame bytes here).
  StorageBackend& inner() { return *inner_; }
  /// Physical offset of chunk `index`'s frame header in the inner store.
  std::uint64_t frameOffset(std::uint64_t index) const {
    return headerBytes_ + index * (kFrameHeaderBytes + spec_.chunkBytes);
  }

 private:
  CodecStorage(std::shared_ptr<StorageBackend> inner, CodecSpec spec,
               std::uint64_t headerBytes,
               std::shared_ptr<CodecStorage> base);

  struct Frame;  // decoded frame header (codec.cpp)
  enum class FrameState { Absent, Valid, Damaged };

  void scanExisting();  // rebuild logicalSize_/maps from inner frames
  FrameState readFrame(std::uint64_t index, Frame& f);
  /// Raw content of chunk `index`, always `chunkBytes` long (zero-padded
  /// past rawBytes; all zeros + damage tick on any integrity failure).
  /// `followRef` bounds ref resolution to depth 1.
  ByteBuffer chunkContent(std::uint64_t index, bool followRef);
  /// Content of chunk `index` in the BASE file, read under the base's lock
  /// with refs not followed (only data frames resolve); empty when there is
  /// no chunk-compatible base. Callers check it: readers by content hash,
  /// the writer by byte comparison.
  ByteBuffer baseChunkContent(std::uint64_t index);
  /// Seal `content` as chunk `index`: hash once, dedup probe, then ref or
  /// data frame.
  void writeChunk(std::uint64_t index, std::span<const Byte> content);
  /// Seal `content` (whose FNV-1a-64 is `hash`) as a DATA frame (no dedup
  /// probe; used by writeChunk and by ref materialization, which must not
  /// re-emit a ref).
  void writeDataFrame(std::uint64_t index, std::span<const Byte> content,
                      std::uint64_t hash);
  void materializeRefsTo(std::uint64_t target);
  void forgetChunkLocked(std::uint64_t index);  // drop maps for an overwrite

  std::shared_ptr<StorageBackend> inner_;
  CodecSpec spec_;
  std::uint64_t headerBytes_ = 0;
  std::shared_ptr<CodecStorage> base_;  // dedup base view (depth 1)
  std::mutex mu_;
  std::uint64_t logicalSize_ = 0;
  /// Reused frame buffer a data frame is sealed into (grown on first write).
  ByteBuffer frameBuf_;
  /// content hash -> chunk index of a sealed full DATA frame in this file.
  std::unordered_map<std::uint64_t, std::uint64_t> ownHash_;
  /// content hash -> chunk index of a full data frame in the base file.
  std::unordered_map<std::uint64_t, std::uint64_t> baseHash_;
  /// chunk index -> hash, for exactly the entries this file put in
  /// ownHash_ (so overwrites erase precisely their own nomination).
  std::unordered_map<std::uint64_t, std::uint64_t> hashByChunk_;
  /// own ref chunk indices keyed by their (own-file) target chunk.
  std::unordered_multimap<std::uint64_t, std::uint64_t> refsByTarget_;
  /// own ref chunk -> its own-file target (reverse of refsByTarget_).
  std::unordered_map<std::uint64_t, std::uint64_t> refTargetByChunk_;
};

/// Probe `storage` for codec framing and wrap it when present; otherwise
/// return it unchanged. `resolveBase` (optional) maps the header's dedup
/// base name to that file's raw store. Offline consumers (dsdump, the
/// inspect convenience overloads) use this since they construct
/// PosixStorage directly rather than opening through a Pfs.
std::shared_ptr<StorageBackend> wrapCodecIfFramed(
    std::shared_ptr<StorageBackend> storage,
    const std::function<std::shared_ptr<StorageBackend>(const std::string&)>&
        resolveBase = nullptr);

}  // namespace pcxx::pfs
