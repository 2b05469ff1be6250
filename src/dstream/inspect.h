// Offline inspection of d/stream files (the dsdump tool's engine).
//
// Walks a file's records using only the self-describing metadata — no
// machine, no collections — which is both a debugging aid and a standing
// proof that d/stream files carry everything a reader needs (paper §4.1:
// "no information about the distribution or size of the data to be read
// needs to be passed to the library").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsindex/dsindex.h"
#include "dstream/record_cursor.h"
#include "dstream/salvage.h"
#include "pfs/backend.h"

namespace pcxx::ds {

/// Summary of one record in a d/stream file: its frame plus size table.
struct RecordInfo : RecordFrame {
  std::vector<std::uint64_t> elementSizes;  ///< per element, file order

  std::uint64_t minElementBytes() const;
  std::uint64_t maxElementBytes() const;
  std::uint64_t totalDataBytes() const;
};

/// Summary of a whole file.
struct FileInfo {
  std::uint64_t fileBytes = 0;
  /// True when a valid dsindex footer bounded the record walk.
  bool indexed = false;
  /// First byte of the index footer; == fileBytes when there is none (the
  /// record chain runs to end of file).
  std::uint64_t footerOffset = 0;
  std::vector<RecordInfo> records;
};

/// Open a d/stream file on the local file system for offline inspection,
/// transparently unwrapping pfs chunk-codec framing when present (see
/// docs/FORMAT.md, "Chunk codec") so every inspector sees logical record
/// bytes. A framed file's dedup base is resolved to a sibling path in the
/// same directory; a missing base leaves its referenced chunks reading as
/// zeros, which the tolerant scans report as ordinary record damage.
std::shared_ptr<pfs::StorageBackend> openInspectStorage(
    const std::string& path);

/// Inspect the d/stream file stored in `storage`: the strict RecordCursor
/// walk. Throws FormatError on a malformed file (bad magic, any record
/// damage, a corrupt index footer, or a footer that disagrees with the
/// chain).
FileInfo inspectFile(pfs::StorageBackend& storage);

/// The same strict walk over any positional reader of `fileBytes` bytes
/// (checkpoint restore validates an epoch in place through this).
FileInfo inspectFile(const dsindex::ReadFn& read, std::uint64_t fileBytes);

/// Convenience: inspect a d/stream file on the local file system.
FileInfo inspectFile(const std::string& path);

/// Result of a tolerant scan (scanFile).
struct ScanResult {
  FileInfo info;         ///< the intact records only
  SalvageReport report;  ///< what was damaged and why
  /// End offset of the longest valid record *prefix* — the truncation
  /// point `dsdump --repair` uses. At least kFileHeaderBytes. Intact
  /// records behind a damaged one do not extend it (normal readers stop at
  /// the first damage; only salvage-mode readers reach them).
  std::uint64_t validPrefixEnd = 0;
};

/// Tolerant scan: the RecordCursor walk, reporting each damaged record or
/// torn tail (the kinds of docs/FORMAT.md, "Partial writes and recoverable
/// prefixes") instead of throwing, and — unlike inspectFile — verifying
/// each record's data CRC-32 trailer when present. It trusts the footer
/// only for the chain end, never as a header-length hint. Only a damaged
/// 16-byte file header still throws FormatError (there is nothing to
/// salvage then). A salvage-mode IStream reports the same damage.
ScanResult scanFile(pfs::StorageBackend& storage);

/// Convenience: tolerant scan of a d/stream file on the local file system.
ScanResult scanFile(const std::string& path);

/// Integrity verification (`dsdump --verify`). With `deep` false and a valid
/// index footer this is the index-checked walk: inspectFile's strict walk,
/// which reads only each record's header and size table (skipping the data
/// payloads) and holds them against the footer's entries; any damage or
/// disagreement falls back to the full scan. Files without a usable footer,
/// and `deep` mode, use scanFile directly.
ScanResult verifyFile(pfs::StorageBackend& storage, bool deep);

/// Read one element's raw payload bytes (by file-order position) from a
/// record. Bounds-checked.
ByteBuffer readElementData(pfs::StorageBackend& storage,
                           const RecordInfo& record,
                           std::int64_t fileOrderIndex);

/// Human-readable report (what `dsdump` prints). `verbose` adds per-element
/// size histograms and insert descriptors.
std::string formatReport(const FileInfo& info, bool verbose);

/// Statistics report (`dsdump --stats`, the pcxx-statdump mode): aggregate
/// I/O accounting for the file — data vs. metadata bytes and overhead,
/// header-mode usage, a log2 element-size histogram, and per-writer-node
/// data volumes recovered from the stored layouts.
std::string formatStatReport(const FileInfo& info);

}  // namespace pcxx::ds
