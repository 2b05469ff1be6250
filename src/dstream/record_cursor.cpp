#include "dstream/record_cursor.h"

#include <algorithm>
#include <string_view>

#include "util/crc32.h"
#include "util/error.h"

namespace pcxx::ds {
namespace {

struct FaultClass {
  Damage damage;
  const char* reason;
};

// Indexed by RecordFault. Only a record whose framing survived can be
// skipped; everything that loses the framing is a torn tail.
constexpr FaultClass kFaultClasses[] = {
    {Damage::TornTail, "truncated or invalid record header"},
    {Damage::TornTail, "invalid record header"},
    {Damage::TornTail, "record extends past end of chain"},
    {Damage::TornTail, "truncated size table"},
    {Damage::TornTail, "truncated data section"},
    {Damage::DamagedRecord, "size table inconsistent with record header"},
    {Damage::DamagedRecord, "data checksum mismatch"},
};

/// RecordHeader::encodedLength, or 0 when the prefix is not a record's.
std::uint64_t lengthOf(std::span<const Byte> prefix8) {
  try {
    return RecordHeader::encodedLength(prefix8);
  } catch (const FormatError&) {
    return 0;
  }
}

/// The verdict of `fault` at `offset`. `end` is the record's decoded end
/// (unused for a torn tail); `detail` replaces the default reason text.
RecordStep verdict(RecordFault fault, std::uint64_t offset,
                   std::uint64_t end, std::uint64_t chainEnd,
                   std::string detail = {}) {
  const FaultClass& c = kFaultClasses[static_cast<size_t>(fault)];
  RecordStep step;
  step.offset = offset;
  step.damage = c.damage;
  step.reason = detail.empty() ? c.reason : std::move(detail);
  step.resumeAt = c.damage == Damage::TornTail ? chainEnd : end;
  return step;
}

}  // namespace

void RecordStep::throwIfDamaged() const {
  if (ok()) return;
  std::string what = reason;
  what.append(" at offset ").append(std::to_string(offset));
  throw FormatError(what);
}

RecordCursor::RecordCursor(dsindex::ReadFn read, std::uint64_t chainEnd,
                           const dsindex::FileIndex* index)
    : read_(std::move(read)), chainEnd_(chainEnd), index_(index) {}

std::uint64_t RecordCursor::chainEndOf(const dsindex::ProbeResult& probe,
                                       std::uint64_t fileSize) {
  return probe.haveFooterOffset ? probe.footerOffset : fileSize;
}

ByteBuffer RecordCursor::fetchHeader(std::uint64_t offset) const {
  if (index_ != nullptr) {
    const auto& entries = index_->entries;
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), offset,
        [](const dsindex::IndexEntry& e, std::uint64_t off) {
          return e.offset < off;
        });
    // A CRC-valid footer can still lie: never size a prefix span past the
    // buffer the entry bought, and fall back when the bytes disagree.
    if (it != entries.end() && it->offset == offset && it->headerBytes >= 8) {
      ByteBuffer bytes(it->headerBytes);
      if (read_(offset, bytes) == bytes.size() &&
          lengthOf(std::span<const Byte>(bytes).first(8)) == bytes.size()) {
        return bytes;
      }
    }
  }
  Byte prefix[8];
  if (read_(offset, prefix) != 8) return {};
  const std::uint64_t len = lengthOf(prefix);
  if (len == 0) return {};
  ByteBuffer bytes(static_cast<size_t>(len));
  if (read_(offset, bytes) != len) return {};
  return bytes;
}

RecordStep RecordCursor::frame(std::uint64_t offset,
                               std::span<const Byte> headerBytes) const {
  if (headerBytes.empty()) {
    return verdict(RecordFault::Framing, offset, 0, chainEnd_);
  }
  std::optional<RecordHeader> header;
  try {
    header = RecordHeader::decode(headerBytes);
  } catch (const FormatError& e) {
    // The decoder's own words, without FormatError's prefix.
    constexpr std::string_view kPrefix = "format error: ";
    std::string_view what = e.what();
    if (what.starts_with(kPrefix)) what.remove_prefix(kPrefix.size());
    return verdict(RecordFault::Header, offset, 0, chainEnd_,
                   std::string(what));
  }
  const std::uint64_t tableOffset = offset + headerBytes.size();
  const std::uint64_t tableBytes = header->sizeTableBytes();
  // Each size is checked alone first so hostile sizes cannot wrap the sum.
  const std::uint64_t end =
      tableBytes > chainEnd_ || header->dataBytes > chainEnd_
          ? ~std::uint64_t{0}
          : tableOffset + tableBytes + header->dataBytes +
                header->trailerBytes();
  if (end > chainEnd_) {
    return verdict(RecordFault::PastChainEnd, offset, 0, chainEnd_);
  }
  RecordStep step;
  step.offset = offset;
  step.resumeAt = end;
  step.frame = RecordFrame{std::move(*header), offset, headerBytes.size(),
                           tableOffset, tableOffset + tableBytes,
                           step.resumeAt};
  return step;
}

void RecordCursor::readSizeTable(RecordStep& step) const {
  const RecordFrame& f = *step.frame;
  ByteBuffer table(static_cast<size_t>(f.dataOffset - f.tableOffset));
  if (read_(f.tableOffset, table) != table.size()) {
    step = classify(RecordFault::TableShort, f, chainEnd_);
    return;
  }
  step.sizes.resize(table.size() / 8);
  std::uint64_t sum = 0;
  for (size_t i = 0; i < step.sizes.size(); ++i) {
    step.sizes[i] = decodeU64(table.data() + 8 * i);
    sum += step.sizes[i];
  }
  if (sum != f.header.dataBytes) {
    step = classify(RecordFault::TableSum, f, chainEnd_);
  }
}

void RecordCursor::checkData(RecordStep& step) const {
  const RecordFrame& f = *step.frame;
  if (!f.header.hasDataCrc()) return;
  ByteBuffer data(static_cast<size_t>(f.header.dataBytes));
  ByteBuffer trailer(4);
  if (read_(f.dataOffset, data) != data.size() ||
      read_(f.dataOffset + data.size(), trailer) != 4) {
    step = classify(RecordFault::DataShort, f, chainEnd_);
  } else if (crc32(data) != decodeU32(trailer.data())) {
    step = classify(RecordFault::DataCrc, f, chainEnd_);
  }
}

RecordStep RecordCursor::next(std::uint64_t offset) const {
  RecordStep step = frame(offset, fetchHeader(offset));
  if (step.ok()) readSizeTable(step);
  return step;
}

RecordStep RecordCursor::classify(RecordFault fault, const RecordFrame& frame,
                                  std::uint64_t chainEnd) {
  return verdict(fault, frame.offset, frame.end, chainEnd);
}

}  // namespace pcxx::ds
