// ds::RecordCursor — the one walker of the d/stream record chain.
//
// Whether the bytes at an offset form a record is decided here and nowhere
// else: IStream's reads, skips and prefetch plan, the offline inspectors
// behind dsdump and checkpoint restore all ask this cursor. It is
// node-local and collective-free: it reads through a dsindex::ReadFn, is
// bounded by one pinned chain end, and may take the footer index as a
// header-length hint. IStream fetches on node 0, broadcasts the header
// bytes and lets every node build the frame; the others call next().
// classify() enforces the table of damage kinds in docs/FORMAT.md,
// "Partial writes and recoverable prefixes": a torn tail (framing lost)
// runs to the chain end, a damaged record (framing intact) to its own end.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsindex/dsindex.h"
#include "dstream/record.h"
#include "dstream/salvage.h"

namespace pcxx::ds {

/// Where one record sits, decoded from its header.
struct RecordFrame {
  RecordHeader header;
  std::uint64_t offset = 0;       ///< first byte of the record header
  std::uint64_t headerBytes = 0;  ///< encoded header length
  std::uint64_t tableOffset = 0;  ///< first byte of the size table
  std::uint64_t dataOffset = 0;   ///< first byte of element data
  std::uint64_t end = 0;          ///< one past the record, trailer included
};

/// Every check a walker makes on a record, in walk order.
enum class RecordFault : std::uint8_t {
  Framing,       ///< prefix or header unreadable, bad magic or length
  Header,        ///< header fails to decode (checksum, contents)
  PastChainEnd,  ///< record runs past the chain end
  TableShort,    ///< size table unreadable
  DataShort,     ///< data section or its CRC trailer unreadable
  TableSum,      ///< size table disagrees with the header's dataBytes
  DataCrc,       ///< data CRC trailer mismatch
};

enum class Damage : std::uint8_t { None, TornTail, DamagedRecord };

/// The cursor's verdict on the record at `offset`.
struct RecordStep {
  std::uint64_t offset = 0;
  std::optional<RecordFrame> frame;  ///< set when the step is ok()
  std::vector<std::uint64_t> sizes;  ///< the size table, file order, once read
  Damage damage = Damage::None;
  std::string reason;                ///< why, when damaged
  /// Where the walk continues: the record's end, or the chain end after a
  /// torn tail.
  std::uint64_t resumeAt = 0;

  bool ok() const { return damage == Damage::None; }
  DamagedRange range() const {
    return DamagedRange{offset, resumeAt - offset, reason};
  }
  /// Strict consumers: throw FormatError naming the reason and offset.
  void throwIfDamaged() const;
};

class RecordCursor {
 public:
  /// `index`, when given, must outlive the cursor.
  RecordCursor(dsindex::ReadFn read, std::uint64_t chainEnd,
               const dsindex::FileIndex* index = nullptr);

  /// The chain-end rule: the footer offset when the self-checksummed
  /// trailer is intact (even over a damaged body), the file size otherwise.
  static std::uint64_t chainEndOf(const dsindex::ProbeResult& probe,
                                  std::uint64_t fileSize);

  std::uint64_t chainEnd() const { return chainEnd_; }

  /// The encoded header at `offset`: one read when an index entry gives its
  /// length (and the bytes agree), prefix-then-header otherwise. Empty when
  /// the framing is lost.
  ByteBuffer fetchHeader(std::uint64_t offset) const;

  /// Decode fetched header bytes into a frame bounded by the chain end.
  RecordStep frame(std::uint64_t offset,
                   std::span<const Byte> headerBytes) const;

  /// Read the whole size table of an ok step and check its sum.
  void readSizeTable(RecordStep& step) const;

  /// Read the data section of an ok step and check its CRC trailer, if the
  /// record carries one.
  void checkData(RecordStep& step) const;

  /// fetchHeader + frame + readSizeTable: one step of an offline walk.
  RecordStep next(std::uint64_t offset) const;

  /// The damage kind and reason of `fault` in the record `frame` under
  /// `chainEnd` (used by IStream for the checks it makes collectively).
  static RecordStep classify(RecordFault fault, const RecordFrame& frame,
                             std::uint64_t chainEnd);

 private:
  dsindex::ReadFn read_;
  std::uint64_t chainEnd_;
  const dsindex::FileIndex* index_;
};

}  // namespace pcxx::ds
