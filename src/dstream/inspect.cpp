#include "dstream/inspect.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "collection/distribution.h"
#include "pfs/codec.h"
#include "util/error.h"
#include "util/strfmt.h"

namespace pcxx::ds {

std::uint64_t RecordInfo::minElementBytes() const {
  if (elementSizes.empty()) return 0;
  return *std::min_element(elementSizes.begin(), elementSizes.end());
}

std::uint64_t RecordInfo::maxElementBytes() const {
  if (elementSizes.empty()) return 0;
  return *std::max_element(elementSizes.begin(), elementSizes.end());
}

std::uint64_t RecordInfo::totalDataBytes() const {
  return std::accumulate(elementSizes.begin(), elementSizes.end(),
                         std::uint64_t{0});
}

namespace {

dsindex::ReadFn storageReader(pfs::StorageBackend& storage) {
  return [&storage](std::uint64_t offset, std::span<Byte> out) {
    return storage.readAt(offset, out);
  };
}

void readFileHeader(const dsindex::ReadFn& read) {
  ByteBuffer fileHeader(kFileHeaderBytes);
  if (read(0, fileHeader) != kFileHeaderBytes) {
    throw FormatError("file too short for a d/stream file header");
  }
  verifyFileHeader(fileHeader);
}

// The strict walk: any damage throws, and a valid footer is used as a
// header-length hint and then held to its word — every entry must agree
// with the record actually found at its offset.
FileInfo strictWalk(const dsindex::ReadFn& read, std::uint64_t fileBytes,
                    const dsindex::ProbeResult& probe) {
  FileInfo info;
  info.fileBytes = fileBytes;
  info.indexed = probe.status == dsindex::ProbeStatus::Valid;
  const RecordCursor cursor(read, RecordCursor::chainEndOf(probe, fileBytes),
                            info.indexed ? &probe.index : nullptr);
  info.footerOffset = cursor.chainEnd();
  for (std::uint64_t pos = kFileHeaderBytes; pos < cursor.chainEnd();) {
    RecordStep step = cursor.next(pos);
    step.throwIfDamaged();
    pos = step.resumeAt;
    info.records.push_back(
        RecordInfo{std::move(*step.frame), std::move(step.sizes)});
  }
  if (info.indexed) {
    const auto& entries = probe.index.entries;
    if (entries.size() != info.records.size()) {
      throw FormatError(strfmt(
          "index footer lists %zu record(s) but the chain holds %zu",
          entries.size(), info.records.size()));
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].offset != info.records[i].offset ||
          entries[i].headerBytes != info.records[i].headerBytes ||
          entries[i].dataBytes != info.records[i].header.dataBytes) {
        throw FormatError(
            strfmt("index footer entry %zu disagrees with record %zu", i, i));
      }
    }
  }
  return info;
}

}  // namespace

std::shared_ptr<pfs::StorageBackend> openInspectStorage(
    const std::string& path) {
  auto raw = std::make_shared<pfs::PosixStorage>(path);
  // A framed file names its dedup base by pfs file name; offline that maps
  // to a sibling of `path` (CheckpointManager epochs live side by side).
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
  return pfs::wrapCodecIfFramed(
      std::move(raw),
      [dir](const std::string& base) -> std::shared_ptr<pfs::StorageBackend> {
        const std::string basePath = dir + base;
        if (!std::filesystem::exists(basePath)) return nullptr;
        return std::make_shared<pfs::PosixStorage>(basePath);
      });
}

FileInfo inspectFile(const dsindex::ReadFn& read, std::uint64_t fileBytes) {
  readFileHeader(read);
  // A self-checksummed trailer over a corrupt body would still pin the
  // chain end, but strict inspection rejects the file outright.
  const dsindex::ProbeResult probe =
      dsindex::probeFooter(read, fileBytes, kFileHeaderBytes);
  if (probe.status == dsindex::ProbeStatus::Corrupt) {
    throw FormatError("corrupt index footer: " + probe.reason);
  }
  return strictWalk(read, fileBytes, probe);
}

FileInfo inspectFile(pfs::StorageBackend& storage) {
  return inspectFile(storageReader(storage), storage.size());
}

FileInfo inspectFile(const std::string& path) {
  const auto storage = openInspectStorage(path);
  return inspectFile(*storage);
}

ScanResult scanFile(pfs::StorageBackend& storage) {
  const dsindex::ReadFn read = storageReader(storage);
  readFileHeader(read);
  const std::uint64_t fileBytes = storage.size();
  // A footer whose trailer checksum fails leaves the walk unbounded; its
  // bytes then surface as ordinary tail damage below.
  const dsindex::ProbeResult probe =
      dsindex::probeFooter(read, fileBytes, kFileHeaderBytes);
  const RecordCursor cursor(read, RecordCursor::chainEndOf(probe, fileBytes));
  const std::uint64_t walkEnd = cursor.chainEnd();

  ScanResult result;
  result.info.fileBytes = fileBytes;
  result.info.footerOffset = walkEnd;
  result.info.indexed = probe.status == dsindex::ProbeStatus::Valid;
  result.validPrefixEnd = kFileHeaderBytes;

  bool prefixIntact = true;
  std::uint64_t pos = kFileHeaderBytes;
  while (pos < walkEnd) {
    RecordStep step = cursor.next(pos);
    if (step.ok()) cursor.checkData(step);
    if (!step.ok()) {
      result.report.recordsLost += 1;
      result.report.damage.push_back(step.range());
      // Without intact framing nothing behind the damage can be located.
      if (step.damage == Damage::TornTail) break;
      prefixIntact = false;
      pos = step.resumeAt;
      continue;
    }
    result.report.recordsRecovered += 1;
    pos = step.resumeAt;
    result.info.records.push_back(
        RecordInfo{std::move(*step.frame), std::move(step.sizes)});
    if (prefixIntact) result.validPrefixEnd = pos;
  }

  if (probe.haveFooterOffset) {
    if (probe.status == dsindex::ProbeStatus::Corrupt) {
      // The footer itself is the damage; the records before it were
      // scanned normally, and --repair truncates the broken footer away.
      result.report.damage.push_back(DamagedRange{
          walkEnd, fileBytes - walkEnd, "corrupt index footer"});
    } else if (prefixIntact && pos == walkEnd) {
      // Clean chain under a valid footer: the whole file, footer
      // included, is the valid prefix, so --repair keeps the index.
      result.validPrefixEnd = fileBytes;
    }
  }
  return result;
}

ScanResult scanFile(const std::string& path) {
  const auto storage = openInspectStorage(path);
  return scanFile(*storage);
}

ScanResult verifyFile(pfs::StorageBackend& storage, bool deep) {
  if (deep) return scanFile(storage);
  const dsindex::ReadFn read = storageReader(storage);
  readFileHeader(read);
  const dsindex::ProbeResult probe =
      dsindex::probeFooter(read, storage.size(), kFileHeaderBytes);
  // No usable index (or a corrupt one): the deep scan owns both the walk
  // and the damage accounting.
  if (probe.status != dsindex::ProbeStatus::Valid) return scanFile(storage);

  // O(index) path: the strict walk reads only headers and size tables —
  // the data payloads, virtually all of the file, stay untouched — and
  // holds them against the footer. Any damage or disagreement means the
  // footer cannot be trusted as a verification transcript, so the deep
  // scan takes over.
  ScanResult result;
  try {
    result.info = strictWalk(read, storage.size(), probe);
  } catch (const FormatError&) {
    return scanFile(storage);
  }
  result.report.recordsRecovered = result.info.records.size();
  result.validPrefixEnd = result.info.fileBytes;
  return result;
}

std::string formatSalvageReport(const SalvageReport& report) {
  std::ostringstream os;
  os << strfmt("salvage: %llu record(s) recovered, %llu lost\n",
               static_cast<unsigned long long>(report.recordsRecovered),
               static_cast<unsigned long long>(report.recordsLost));
  for (const DamagedRange& d : report.damage) {
    os << strfmt("  damaged: [%llu, +%llu) %s\n",
                 static_cast<unsigned long long>(d.offset),
                 static_cast<unsigned long long>(d.bytes), d.reason.c_str());
  }
  return os.str();
}

ByteBuffer readElementData(pfs::StorageBackend& storage,
                           const RecordInfo& record,
                           std::int64_t fileOrderIndex) {
  PCXX_REQUIRE(fileOrderIndex >= 0 &&
                   fileOrderIndex <
                       static_cast<std::int64_t>(record.elementSizes.size()),
               "element index out of range for this record");
  std::uint64_t offset = record.dataOffset;
  for (std::int64_t i = 0; i < fileOrderIndex; ++i) {
    offset += record.elementSizes[static_cast<size_t>(i)];
  }
  ByteBuffer out(static_cast<size_t>(
      record.elementSizes[static_cast<size_t>(fileOrderIndex)]));
  if (storage.readAt(offset, out) != out.size()) {
    throw FormatError("element data truncated");
  }
  return out;
}

std::string formatReport(const FileInfo& info, bool verbose) {
  std::ostringstream os;
  os << "d/stream file: " << humanBytes(info.fileBytes) << ", "
     << info.records.size() << " record(s)\n";
  for (const RecordInfo& rec : info.records) {
    const auto& h = rec.header;
    os << strfmt(
        "  record %u @ %llu: %lld elements, %s data, layout = %s x %d "
        "nodes",
        h.seq, static_cast<unsigned long long>(rec.offset),
        static_cast<long long>(h.elementCount()),
        humanBytes(h.dataBytes).c_str(),
        coll::distKindName(h.layout.distribution().kind()),
        h.layout.nprocs());
    if (!h.layout.align().identity()) {
      os << strfmt(" (aligned: %lld*i%+lld)",
                   static_cast<long long>(h.layout.align().stride()),
                   static_cast<long long>(h.layout.align().offset()));
    }
    os << strfmt(", header %s\n",
                 h.mode == HeaderMode::Gathered ? "gathered" : "parallel");
    os << strfmt("    element sizes: min %llu, max %llu bytes; %zu insert(s)\n",
                 static_cast<unsigned long long>(rec.minElementBytes()),
                 static_cast<unsigned long long>(rec.maxElementBytes()),
                 h.inserts.size());
    if (verbose) {
      for (size_t i = 0; i < h.inserts.size(); ++i) {
        const InsertDesc& d = h.inserts[i];
        os << strfmt("    insert %zu: %s, type tag %08x%s\n", i,
                     d.kind == InsertKind::Collection ? "collection"
                                                      : "field",
                     d.typeTag,
                     d.fixedPerElement != 0
                         ? strfmt(", %u bytes/element",
                                  d.fixedPerElement).c_str()
                         : " (variable)");
      }
      // Small size histogram (8 buckets between min and max).
      const std::uint64_t lo = rec.minElementBytes();
      const std::uint64_t hi = rec.maxElementBytes();
      if (hi > lo) {
        int buckets[8] = {0};
        for (std::uint64_t sz : rec.elementSizes) {
          const auto b = static_cast<size_t>((sz - lo) * 7 / (hi - lo));
          ++buckets[b];
        }
        os << "    size histogram:";
        for (int b : buckets) os << " " << b;
        os << "\n";
      }
    }
  }
  return os.str();
}

std::string formatStatReport(const FileInfo& info) {
  std::ostringstream os;
  std::uint64_t dataBytes = 0;
  std::uint64_t headerBytes = 0;
  std::uint64_t tableBytes = 0;
  std::uint64_t trailerBytes = 0;
  std::uint64_t elements = 0;
  int gathered = 0;
  int parallel = 0;
  // log2 element-size histogram: bucket 0 holds 0, bucket i holds
  // [2^(i-1), 2^i).
  constexpr int kBuckets = 33;
  std::uint64_t sizeHist[kBuckets] = {0};
  std::vector<std::uint64_t> perNodeBytes;

  for (const RecordInfo& rec : info.records) {
    const auto& h = rec.header;
    dataBytes += h.dataBytes;
    headerBytes += rec.headerBytes;
    tableBytes += h.sizeTableBytes();
    trailerBytes += h.trailerBytes();
    elements += static_cast<std::uint64_t>(h.elementCount());
    (h.mode == HeaderMode::Gathered ? gathered : parallel) += 1;
    for (std::uint64_t sz : rec.elementSizes) {
      int b = 0;
      for (std::uint64_t v = sz; v != 0; v >>= 1) ++b;
      ++sizeHist[std::min(b, kBuckets - 1)];
    }
    // File order concatenates each writer node's elements in node order,
    // so per-node data volumes are contiguous runs of the size table.
    if (static_cast<size_t>(h.layout.nprocs()) > perNodeBytes.size()) {
      perNodeBytes.resize(static_cast<size_t>(h.layout.nprocs()), 0);
    }
    size_t at = 0;
    for (int proc = 0; proc < h.layout.nprocs(); ++proc) {
      const auto n = static_cast<size_t>(h.layout.localCount(proc));
      for (size_t k = 0; k < n && at < rec.elementSizes.size(); ++k) {
        perNodeBytes[static_cast<size_t>(proc)] += rec.elementSizes[at++];
      }
    }
  }

  const std::uint64_t metaBytes =
      kFileHeaderBytes + headerBytes + tableBytes + trailerBytes;
  os << "d/stream file statistics\n";
  os << strfmt("  file:       %s (%llu bytes)\n",
               humanBytes(info.fileBytes).c_str(),
               static_cast<unsigned long long>(info.fileBytes));
  os << strfmt("  records:    %zu (%d gathered, %d parallel header)\n",
               info.records.size(), gathered, parallel);
  os << strfmt("  elements:   %llu\n",
               static_cast<unsigned long long>(elements));
  os << strfmt("  data:       %s\n", humanBytes(dataBytes).c_str());
  os << strfmt(
      "  metadata:   %s (%s headers, %s size tables, %s trailers)\n",
      humanBytes(metaBytes).c_str(), humanBytes(headerBytes).c_str(),
      humanBytes(tableBytes).c_str(), humanBytes(trailerBytes).c_str());
  if (dataBytes + metaBytes > 0) {
    os << strfmt("  overhead:   %.2f%% of file bytes are metadata\n",
                 100.0 * static_cast<double>(metaBytes) /
                     static_cast<double>(dataBytes + metaBytes));
  }
  if (elements > 0) {
    os << "  element size histogram (bytes -> count):\n";
    for (int b = 0; b < kBuckets; ++b) {
      if (sizeHist[b] == 0) continue;
      const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
      os << strfmt("    >= %-10llu %llu\n",
                   static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(sizeHist[b]));
    }
  }
  if (!perNodeBytes.empty()) {
    os << "  data bytes by writer node:\n";
    for (size_t p = 0; p < perNodeBytes.size(); ++p) {
      os << strfmt("    node %-4zu %s\n", p,
                   humanBytes(perNodeBytes[p]).c_str());
    }
  }
  return os.str();
}

}  // namespace pcxx::ds
