// dsdump: inspect d/stream files from the command line.
//
//   dsdump wholeGridFile             # record summary
//   dsdump -v wholeGridFile          # + insert descriptors, histograms
//   dsdump --stats wholeGridFile     # aggregate I/O statistics (statdump)
//   dsdump --element 3 file          # hex dump of one element's payload
//   dsdump --verify file             # O(index) check; exit 0 clean, 3 corrupt
//   dsdump --verify --deep file      # full scan incl. data checksums
//   dsdump --repair file             # truncate to the last valid record
#include <cstdio>

#include "dstream/inspect.h"
#include "pfs/backend.h"
#include "util/crc32.h"
#include "util/options.h"
#include "util/strfmt.h"

namespace {

// Rebuild a fresh index footer for a repaired file's surviving record
// prefix. The scan's RecordInfo carries everything an entry needs; extents
// are recovered from the stored layout the same way --stats attributes
// data bytes to writer nodes. Records the tolerant scan salvaged from
// BEHIND the first damage are excluded — truncation discards them.
pcxx::dsindex::FileIndex rebuildIndex(
    const std::vector<pcxx::ds::RecordInfo>& records,
    std::uint64_t validPrefixEnd) {
  pcxx::dsindex::FileIndex index;
  for (const pcxx::ds::RecordInfo& rec : records) {
    if (rec.end > validPrefixEnd) continue;
    pcxx::dsindex::IndexEntry entry;
    entry.offset = rec.offset;
    entry.headerBytes = static_cast<std::uint32_t>(rec.headerBytes);
    entry.recordFlags = rec.header.flags;
    entry.recordBytes = rec.end - rec.offset;
    entry.dataBytes = rec.header.dataBytes;
    pcxx::ByteBuffer enc;
    pcxx::ByteWriter w(enc);
    rec.header.layout.encode(w);
    entry.layoutDigest = pcxx::crc32(enc);
    entry.extents.assign(static_cast<size_t>(rec.header.layout.nprocs()), 0);
    size_t at = 0;
    for (int proc = 0; proc < rec.header.layout.nprocs(); ++proc) {
      const auto n = static_cast<size_t>(rec.header.layout.localCount(proc));
      for (size_t k = 0; k < n && at < rec.elementSizes.size(); ++k) {
        entry.extents[static_cast<size_t>(proc)] += rec.elementSizes[at++];
      }
    }
    index.entries.push_back(std::move(entry));
  }
  return index;
}

// Tolerant integrity scan (exit 0 clean / 3 corrupt / 1 unreadable), with
// optional repair by truncating to the longest valid record prefix.
int verifyOrRepair(const std::string& path, bool repair, bool deep) {
  const auto storage = pcxx::ds::openInspectStorage(path);
  pcxx::ds::ScanResult scan;
  try {
    // Repair always walks the whole chain before truncating anything;
    // verify takes the O(index) footer path unless --deep forces the scan.
    scan = repair ? pcxx::ds::scanFile(*storage)
                  : pcxx::ds::verifyFile(*storage, deep);
  } catch (const pcxx::FormatError& e) {
    // Even the 16-byte file header is damaged: corrupt, and unrepairable.
    std::fprintf(stderr, "dsdump: %s: %s\n", path.c_str(), e.what());
    return repair ? 1 : 3;
  }
  std::fputs(pcxx::ds::formatSalvageReport(scan.report).c_str(), stdout);
  if (scan.report.clean()) {
    std::printf("%s: clean\n", path.c_str());
    return 0;
  }
  if (!repair) return 3;
  // Truncate first, THEN append a fresh footer for the surviving records:
  // the truncate discards every byte past the valid prefix — damaged
  // records, a broken footer body, and any stale trailer — so the trailer
  // a later reader finds at EOF can only be the one appended here. Without
  // the re-append a repaired file would lose O(1) seeks and its explicit
  // end-of-chain marker even though all surviving records are intact.
  storage->truncate(scan.validPrefixEnd);
  const pcxx::dsindex::FileIndex index =
      rebuildIndex(scan.info.records, scan.validPrefixEnd);
  storage->writeAt(scan.validPrefixEnd,
                   index.encodeFooter(scan.validPrefixEnd));
  storage->sync();
  std::printf(
      "%s: repaired, truncated to %llu bytes, fresh index footer "
      "(%zu record(s) kept)\n",
      path.c_str(), static_cast<unsigned long long>(scan.validPrefixEnd),
      index.entries.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    pcxx::Options opts("dsdump", "inspect a d/stream file");
    opts.addFlag("v", "verbose: insert descriptors and size histograms");
    opts.addFlag("stats",
                 "aggregate statistics: data vs. metadata bytes, header "
                 "modes, size histogram, per-writer-node volumes");
    opts.addFlag("verify",
                 "tolerant integrity scan incl. data checksums; exit 0 "
                 "when clean, 3 when corrupt");
    opts.addFlag("repair",
                 "truncate the file to its longest valid record prefix "
                 "(implies --verify's scan)");
    opts.addFlag("deep",
                 "with --verify: full record scan incl. data checksums even "
                 "when a valid index footer would allow the O(index) check");
    opts.add("record", "0", "record index for --element");
    opts.add("element", "-1",
             "hex-dump the payload of this file-order element");
    if (!opts.parse(argc, argv)) return 0;
    if (opts.positional().size() != 1) {
      std::fputs(opts.usage().c_str(), stderr);
      return 2;
    }

    if (opts.getFlag("verify") || opts.getFlag("repair")) {
      return verifyOrRepair(opts.positional()[0], opts.getFlag("repair"),
                            opts.getFlag("deep"));
    }

    const auto storage = pcxx::ds::openInspectStorage(opts.positional()[0]);
    const pcxx::ds::FileInfo info = pcxx::ds::inspectFile(*storage);

    const std::int64_t element = opts.getInt("element");
    if (element >= 0) {
      const auto recordIdx = static_cast<size_t>(opts.getInt("record"));
      if (recordIdx >= info.records.size()) {
        std::fprintf(stderr, "no record %zu (file has %zu)\n", recordIdx,
                     info.records.size());
        return 1;
      }
      const auto data = pcxx::ds::readElementData(
          *storage, info.records[recordIdx], element);
      std::printf("record %zu element %lld: %zu bytes\n", recordIdx,
                  static_cast<long long>(element), data.size());
      for (size_t i = 0; i < data.size(); i += 16) {
        std::printf("%08zx ", i);
        for (size_t k = i; k < std::min(i + 16, data.size()); ++k) {
          std::printf(" %02x", data[k]);
        }
        std::putchar('\n');
      }
      return 0;
    }

    const std::string report =
        opts.getFlag("stats")
            ? pcxx::ds::formatStatReport(info)
            : pcxx::ds::formatReport(info, opts.getFlag("v"));
    std::fputs(report.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsdump: %s\n", e.what());
    return 1;
  }
}
