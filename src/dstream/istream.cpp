#include "dstream/istream.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/crc32.h"

#include "util/log.h"

namespace pcxx::ds {

using protocol::InState;
using protocol::Op;

IStream::IStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const coll::Align* a, const std::string& fileName,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      layout_(*d, *a),
      opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

IStream::IStream(pfs::Pfs& fs, const coll::Distribution* d,
                 const std::string& fileName, StreamOptions opts)
    : node_(&rt::thisNode()), fs_(&fs), layout_(*d), opts_(opts),
      localCount_(0) {
  openFile(fileName);
}

IStream::IStream(const coll::Distribution* d, const coll::Align* a,
                 const std::string& fileName, StreamOptions opts)
    : IStream(defaultPfs(), d, a, fileName, opts) {}

IStream::IStream(const coll::Distribution* d, const std::string& fileName,
                 StreamOptions opts)
    : IStream(defaultPfs(), d, fileName, opts) {}

IStream::IStream(pfs::Pfs& fs, pfs::ParallelFilePtr file, coll::Layout layout,
                 StreamOptions opts)
    : node_(&rt::thisNode()),
      fs_(&fs),
      file_(std::move(file)),
      layout_(std::move(layout)),
      opts_(opts),
      localCount_(layout_.localCount(node_->id())) {
  PCXX_REQUIRE(file_ != nullptr, "IStream requires an open file");
  // Collective-free probe: attach streams are constructed in arbitrary
  // per-file order across nodes, so each node reads the tiny footer itself.
  probeIndex(/*viaBroadcast=*/false);
  setupPrefetch();
}

void IStream::openFile(const std::string& fileName) {
  localCount_ = layout_.localCount(node_->id());
  file_ = fs_->open(*node_, fileName, pfs::OpenMode::Read);
  ByteBuffer hdr(kFileHeaderBytes);
  if (node_->id() == 0) {
    const std::uint64_t got = file_->readAt(*node_, 0, hdr);
    if (got != kFileHeaderBytes) hdr.clear();
  }
  node_->broadcastBytes(0, hdr);
  verifyFileHeader(hdr);
  probeIndex(/*viaBroadcast=*/true);
  file_->seekShared(*node_, kFileHeaderBytes);
  setupPrefetch();
}

void IStream::probeIndex(bool viaBroadcast) {
  indexValid_ = false;
  // The probe always runs: even with dsindexUseFooter off, the trailer must
  // pin the end of the record chain or sequential replay would walk into
  // the footer bytes. The option only gates *using* the index (and the
  // hit/fallback accounting — replay by choice is not a fallback).
  // Encoded probe verdict: [u8 status][u8 haveOffset][u64 footerOffset]
  // [body bytes when Valid]. Node 0 (or, collective-free, every node)
  // produces it; decodeBody re-verifies the CRC on each consumer.
  ByteBuffer blob;
  if (!viaBroadcast || node_->id() == 0) {
    const dsindex::ProbeResult probe = dsindex::probeFooter(
        [&](std::uint64_t off, std::span<Byte> out) {
          return file_->readAt(*node_, off, out);
        },
        file_->size(), kFileHeaderBytes);
    ByteWriter w(blob);
    w.u8(static_cast<std::uint8_t>(probe.status));
    // Chain end, pinned at open time. Pinning gives every node the same
    // snapshot — atEnd() must not change verdict mid-read because some
    // other node already raced ahead into a footer-appending close of its
    // writer.
    w.u64(RecordCursor::chainEndOf(probe, file_->size()));
    if (probe.status == dsindex::ProbeStatus::Valid) {
      w.bytes(probe.index.encodeBody());
    }
  }
  if (viaBroadcast) node_->broadcastBytes(0, blob);
  ByteReader r(blob);
  const auto status = static_cast<dsindex::ProbeStatus>(r.u8());
  dataEnd_ = r.u64();
  if (!opts_.dsindexUseFooter) return;
  if (status == dsindex::ProbeStatus::Valid) {
    index_ = dsindex::FileIndex::decodeBody(
        std::span<const Byte>(blob).subspan(r.position()));
    indexValid_ = true;
    PCXX_OBS_COUNT(node_->obs(), DsIndexHits, 1);
  } else {
    PCXX_OBS_COUNT(node_->obs(), DsIndexFallbacks, 1);
  }
}

RecordCursor IStream::cursor(bool indexHint) const {
  return RecordCursor(
      [this](std::uint64_t offset, std::span<Byte> out) {
        return file_->readAt(*node_, offset, out);
      },
      chainEnd(), indexHint && indexValid_ ? &index_ : nullptr);
}

RecordStep IStream::frameAt(std::uint64_t offset, bool indexHint) {
  const RecordCursor c = cursor(indexHint);
  ByteBuffer headerBytes;
  if (node_->id() == 0) headerBytes = c.fetchHeader(offset);
  node_->broadcastBytes(0, headerBytes);
  // Decoding the broadcast bytes gives the same verdict on every node.
  return c.frame(offset, headerBytes);
}

IStream::~IStream() { close(); }

void IStream::close() {
  enter(Op::Close);
  prefetcher_.reset();  // before file_: the plan holds a file reference
  file_.reset();
}

void IStream::rewind() {
  enter(Op::Rewind);
  file_->seekShared(*node_, kFileHeaderBytes);
  restartPrefetch();
}

bool IStream::atEnd() const {
  if (state_ == InState::Closed) return true;
  return file_->sharedOffset() >= chainEnd();
}

void IStream::seekRecord(std::uint32_t k) {
  enter(Op::SeekRecord);
  PCXX_OBS_SPAN(node_->obs(), "ds.seek");
  PCXX_OBS_COUNT(node_->obs(), DsIndexSeeks, 1);
  if (indexValid_) {
    if (k >= index_.entries.size()) {
      throw UsageError("seekRecord(" + std::to_string(k) +
                       "): the file's index has only " +
                       std::to_string(index_.entries.size()) + " record(s)");
    }
    PCXX_OBS_COUNT(node_->obs(), DsIndexHits, 1);
    file_->seekShared(*node_, index_.entries[static_cast<size_t>(k)].offset);
    restartPrefetch();
    return;
  }
  // No usable footer: replay the chain from the top with k header-only
  // skips — same result, O(k) header reads.
  PCXX_OBS_COUNT(node_->obs(), DsIndexFallbacks, 1);
  file_->seekShared(*node_, kFileHeaderBytes);
  restartPrefetch();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (atEnd()) {
      throw UsageError("seekRecord(" + std::to_string(k) +
                       "): the record chain ends after " + std::to_string(i) +
                       " record(s)");
    }
    skipRecord();
  }
  // Mirror the indexed path's k >= recordCount rejection: a chain of
  // exactly k records must throw too, not silently park at end-of-chain.
  if (atEnd()) {
    throw UsageError("seekRecord(" + std::to_string(k) +
                     "): the record chain has only " + std::to_string(k) +
                     " record(s)");
  }
}

void IStream::project(std::vector<std::uint32_t> fields) {
  enter(Op::Project);
  std::sort(fields.begin(), fields.end());
  fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
  projection_ = std::move(fields);
}

const RecordHeader& IStream::currentRecord() const {
  PCXX_REQUIRE(record_.has_value(),
               "no record has been read yet (call read() first)");
  return *record_;
}

void IStream::checkExtract(const coll::Layout& collectionLayout,
                           std::uint32_t tag, InsertKind kind) const {
  protocol::enter(state_, Op::Extract);
  if (collectionLayout != layout_) {
    throw UsageError(
        "extracted collection's distribution/alignment does not match the "
        "d/stream's");
  }
  const auto& inserts = record_->inserts;
  if (nextExtract_ >= inserts.size()) {
    throw UsageError(
        "more extracts than the record has inserts; every extract must have "
        "a corresponding insert");
  }
  const InsertDesc& desc = inserts[nextExtract_];
  if (desc.kind != kind) {
    throw UsageError(
        "extract kind mismatch: a whole-collection extract must correspond "
        "to a whole-collection insert (and a field to a field)");
  }
  if (desc.typeTag != tag) {
    throw UsageError(
        "extract type mismatch: the extracted element type differs from the "
        "inserted element type for this position in the record");
  }
  PCXX_OBS_COUNT(node_->obs(), DsExtracts, 1);
}

RecordHeader IStream::skipRecord() {
  enter(Op::SkipRecord);
  PCXX_OBS_SPAN(node_->obs(), "ds.skip");
  PCXX_OBS_COUNT(node_->obs(), DsSkips, 1);
  // Replay's prefix-then-header fetch: seekRecord only skips without an
  // index, and a direct skip keeps the reads it has always issued.
  RecordStep step = frameAt(file_->sharedOffset(), /*indexHint=*/false);
  step.throwIfDamaged();
  file_->seekShared(*node_, step.resumeAt);
  restartPrefetch();
  return std::move(step.frame->header);
}

void IStream::readNext(bool sorted) {
  // The previous record is dropped here, once: whatever this read throws,
  // the stream is left with nothing to extract.
  enter(sorted ? Op::Read : Op::UnsortedRead);
  PCXX_OBS_PHASE(node_->obs(), "ds.read", DsReadSeconds);
  for (;;) {
    if (opts_.salvage && atEnd()) {
      // Salvage consumed the rest of the file (or it was already
      // exhausted): no record to extract, but no exception either.
      return;
    }
    const bool got = readRecordOnce(sorted);
    // A prefetch miss (or a salvage skip) parks the read-ahead chain;
    // re-aim it at the new shared cursor before the next record.
    if (prefetcher_ != nullptr && !prefetchLive_) restartPrefetch();
    if (got) return;
    // A damaged record was skipped; the cursor sits past the damage.
  }
}

void IStream::enter(Op op) {
  state_ = protocol::enter(state_, op);
  if (state_ == InState::Ready) record_.reset();
}

bool IStream::skipDamage(std::uint64_t from, std::uint64_t to,
                         std::string reason) {
  salvage_.recordsLost += 1;
  salvage_.damage.push_back(DamagedRange{from, to - from, std::move(reason)});
  file_->seekShared(*node_, to);
  return false;
}

bool IStream::onDamage(const RecordStep& step) {
  if (!opts_.salvage) step.throwIfDamaged();
  return skipDamage(step.offset, step.resumeAt, step.reason);
}

bool IStream::readRecordOnce(bool sorted) {
  // ---- read-ahead fast path ------------------------------------------------
  if (prefetcher_ != nullptr) {
    const int got = tryPrefetched(sorted);
    if (got >= 0) return got != 0;
    // Miss: fall through to the synchronous path, which owns all error and
    // salvage semantics.
  }

  // ---- record header (node 0 reads, then broadcast) -----------------------
  const std::uint64_t recordStart = file_->sharedOffset();

  // Record-scoped correlation id: opens a "ds.record" flow chain that the
  // ordered data read and the redistribution exchange extend, so Perfetto
  // links each record to the work that reconstructed it.
  std::uint64_t rid = 0;
  obs::NodeObs* fobs = node_->obs();
  if (fobs != nullptr && fobs->trace != nullptr) {
    rid = node_->machine().nextFlowId();
    fobs->trace->flowStart(node_->id(), "ds.record", fobs->now(), rid);
  }

  // The footer's header length saves the prefix read. The cursor's verdict,
  // including the record-fits-the-chain check, comes before any collective
  // read, so every node skips (salvage) or throws together and no
  // collective sees a short read.
  RecordStep step = frameAt(recordStart, /*indexHint=*/true);
  if (!step.ok()) return onDamage(step);
  RecordFrame frame = std::move(*step.frame);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);

  if (frame.header.elementCount() != layout_.size()) {
    throw UsageError(
        "record was written from a collection of " +
        std::to_string(frame.header.elementCount()) +
        " elements but the reading d/stream has " +
        std::to_string(layout_.size()) +
        "; extracted arrays must have the size of the inserted arrays");
  }

  // ---- size table ----------------------------------------------------------
  // Readers partition the file-order element sequence by their own local
  // counts: node r takes file positions [sum(count_<r), +count_r). This is
  // the conforming phase-1 read; when the layouts match it already is the
  // final placement.
  file_->seekShared(*node_, frame.tableOffset);
  ByteBuffer sizeChunk(static_cast<size_t>(localCount_) * 8);
  file_->readOrdered(*node_, sizeChunk);
  std::vector<std::uint64_t> chunkSizes(static_cast<size_t>(localCount_));
  for (size_t j = 0; j < chunkSizes.size(); ++j) {
    chunkSizes[j] = decodeU64(sizeChunk.data() + 8 * j);
  }
  std::uint64_t myChunkBytes = 0;
  if (!checkSizeSum(frame, chunkSizes, myChunkBytes)) return false;

  // ---- projected data (strided positional reads) ---------------------------
  if (!projection_.empty()) {
    ByteBuffer projChunk;
    if (!readProjectedChunk(frame, chunkSizes, myChunkBytes, projChunk)) {
      return false;  // salvage skipped the record
    }
    PCXX_OBS_COUNT(node_->obs(), DsIndexProjections, 1);
    return finishRecord(sorted, std::move(frame), std::move(projChunk),
                        std::move(chunkSizes), rid);
  }

  // ---- data (phase 1: conforming contiguous read) --------------------------
  // When this phase is the final placement (unsorted, or nothing moves) the
  // data lands in the previous record's buffer, whose pages are already
  // resident (readNext dropped that record). Redistribution writes buffer_
  // itself, so it reads into a fresh chunk.
  ByteBuffer chunk;
  if (!sorted || frame.header.layout == layout_) chunk.swap(buffer_);
  chunk.resize(static_cast<size_t>(myChunkBytes));
  if (fobs != nullptr && fobs->trace != nullptr) {
    fobs->trace->flowStep(node_->id(), "ds.record", fobs->now(), rid);
  }
  file_->readOrdered(*node_, chunk);

  // ---- optional data checksum trailer ---------------------------------------
  if (!checkTrailer(frame, chunk, myChunkBytes)) return false;

  return finishRecord(sorted, std::move(frame), std::move(chunk),
                      std::move(chunkSizes), rid);
}

bool IStream::checkSizeSum(const RecordFrame& frame,
                           const std::vector<std::uint64_t>& chunkSizes,
                           std::uint64_t& myChunkBytes) {
  myChunkBytes = std::accumulate(chunkSizes.begin(), chunkSizes.end(),
                                 std::uint64_t{0});
  // A corrupted size table would send the data reads to the wrong extents;
  // in salvage mode cross-check its sum against the header before using
  // it. The allreduce keeps the skip decision collectively consistent.
  if (opts_.salvage &&
      node_->allreduceSumU64(myChunkBytes) != frame.header.dataBytes) {
    return onDamage(
        RecordCursor::classify(RecordFault::TableSum, frame, chainEnd()));
  }
  return true;
}

bool IStream::checkTrailer(const RecordFrame& frame, const ByteBuffer& chunk,
                           std::uint64_t myChunkBytes) {
  if (!frame.header.hasDataCrc()) return true;
  const auto crcs = node_->allgatherU64(crc32(chunk));
  const auto lens = node_->allgatherU64(myChunkBytes);
  std::uint32_t dataCrc = 0;
  for (int i = 0; i < node_->nprocs(); ++i) {
    dataCrc = crc32Combine(dataCrc,
                           static_cast<std::uint32_t>(
                               crcs[static_cast<size_t>(i)]),
                           lens[static_cast<size_t>(i)]);
  }
  const std::uint64_t trailerAt = file_->sharedOffset();
  ByteBuffer trailer(4);
  if (node_->id() == 0) {
    if (file_->readAt(*node_, trailerAt, trailer) != 4) trailer.clear();
  }
  node_->broadcastBytes(0, trailer);
  if (trailer.size() != 4) {
    return onDamage(
        RecordCursor::classify(RecordFault::DataShort, frame, chainEnd()));
  }
  if (decodeU32(trailer.data()) != dataCrc) {
    return onDamage(
        RecordCursor::classify(RecordFault::DataCrc, frame, chainEnd()));
  }
  file_->seekShared(*node_, trailerAt + 4);
  return true;
}

IStream::ProjectionMap IStream::projectionFor(
    const RecordHeader& header) const {
  ProjectionMap map;
  const auto& inserts = header.inserts;
  if (projection_.back() >= inserts.size()) {
    throw UsageError("projection names insert " +
                     std::to_string(projection_.back()) +
                     " but the record has only " +
                     std::to_string(inserts.size()) + " insert(s)");
  }
  // Within an element the inserts' fixed-size values are stored
  // contiguously in insertion order, so a projected field's offset is the
  // sum of the fixed sizes before it — which requires every insert up to
  // the last projected one to BE fixed-size (trailing variable-size
  // inserts are simply never visited).
  std::uint64_t off = 0;
  size_t next = 0;
  for (std::uint32_t i = 0;
       i < inserts.size() && next < projection_.size(); ++i) {
    const InsertDesc& desc = inserts[i];
    if (desc.fixedPerElement == 0) {
      throw UsageError(
          "field projection requires fixed-size fields: insert " +
          std::to_string(i) +
          " has a variable per-element size, so later field offsets are "
          "not stride-computable");
    }
    if (projection_[next] == i) {
      map.offsets.push_back(off);
      map.lengths.push_back(desc.fixedPerElement);
      map.descs.push_back(desc);
      map.bytesPerElement += desc.fixedPerElement;
      ++next;
    }
    off += desc.fixedPerElement;
  }
  map.coverStart = map.offsets.front();
  map.coverEnd = map.offsets.back() + map.lengths.back();
  return map;
}

bool IStream::projectionFits(const ProjectionMap& map,
                             const RecordFrame& frame,
                             const std::vector<std::uint64_t>& chunkSizes) {
  // Every element must carry the fixed prefix the projection reads from; a
  // size table that says otherwise is node-local damage, so vote to keep
  // the skip/throw decision collectively consistent.
  std::uint64_t bad = 0;
  for (const std::uint64_t sz : chunkSizes) {
    if (sz < map.coverEnd) bad = 1;
  }
  if (node_->allreduceSumU64(bad) == 0) return true;
  if (opts_.salvage) {
    return skipDamage(frame.offset, frame.end,
                      "element smaller than the projected field region");
  }
  throw FormatError(
      "element smaller than the projected field region (size table "
      "inconsistent with the record's insert shapes)");
}

bool IStream::readProjectedChunk(RecordFrame& frame,
                                 std::vector<std::uint64_t>& chunkSizes,
                                 std::uint64_t myChunkBytes, ByteBuffer& out) {
  // Throws UsageError identically on every node — the header bytes were
  // broadcast — so no vote is needed for shape violations.
  const ProjectionMap map = projectionFor(frame.header);

  // Element j of my chunk starts at dataOffset + (bytes of preceding
  // nodes' chunks) + (bytes of my preceding elements). The ordered
  // size-table read only gave each node its own slice, so exchange the
  // chunk totals.
  const auto lens = node_->allgatherU64(myChunkBytes);
  std::uint64_t before = 0;
  for (int r = 0; r < node_->id(); ++r) {
    before += lens[static_cast<size_t>(r)];
  }

  if (!projectionFits(map, frame, chunkSizes)) return false;

  const std::uint64_t coverLen = map.coverEnd - map.coverStart;

  // Absolute covering span per local element, coalescing neighbours when
  // the skipped gap costs no more than the span it saves re-seeking for.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  spans.reserve(chunkSizes.size());
  std::uint64_t elemAbs = frame.dataOffset + before;
  for (const std::uint64_t sz : chunkSizes) {
    spans.emplace_back(elemAbs + map.coverStart, elemAbs + map.coverEnd);
    elemAbs += sz;
  }
  out.clear();
  out.reserve(chunkSizes.size() *
              static_cast<size_t>(map.bytesPerElement));
  ByteBuffer scratch;
  size_t j = 0;
  while (j < spans.size()) {
    size_t k = j + 1;
    std::uint64_t runEnd = spans[j].second;
    while (k < spans.size() && spans[k].first - runEnd <= coverLen) {
      runEnd = spans[k].second;
      ++k;
    }
    const std::uint64_t runStart = spans[j].first;
    scratch.resize(static_cast<size_t>(runEnd - runStart));
    if (file_->readAt(*node_, runStart, scratch) != scratch.size()) {
      throw IoError("projected read ran past end of file at offset " +
                    std::to_string(runStart));
    }
    for (size_t e = j; e < k; ++e) {
      // spans[e].first already includes coverStart, so fold it into the
      // field offset (offsets[f] >= coverStart): every intermediate
      // pointer stays inside scratch.
      const Byte* elem = scratch.data() + (spans[e].first - runStart);
      for (size_t f = 0; f < map.offsets.size(); ++f) {
        const Byte* src = elem + (map.offsets[f] - map.coverStart);
        out.insert(out.end(), src, src + map.lengths[f]);
      }
    }
    j = k;
  }

  // The record is consumed: advance the shared cursor past data + trailer
  // in one collective move (the data CRC cannot be verified — the full
  // section was never fetched).
  file_->seekShared(*node_, frame.end);

  // Rewrite the record to its projected shape: extraction sees exactly the
  // projected fields, each element now a fixed bytesPerElement slice.
  frame.header.inserts = map.descs;
  chunkSizes.assign(chunkSizes.size(), map.bytesPerElement);
  return true;
}

bool IStream::applyProjectionInMemory(RecordFrame& frame, ByteBuffer& chunk,
                                      std::vector<std::uint64_t>& chunkSizes) {
  const ProjectionMap map = projectionFor(frame.header);
  if (!projectionFits(map, frame, chunkSizes)) return false;
  ByteBuffer proj;
  proj.reserve(chunkSizes.size() * static_cast<size_t>(map.bytesPerElement));
  std::uint64_t pos = 0;
  for (const std::uint64_t sz : chunkSizes) {
    for (size_t f = 0; f < map.offsets.size(); ++f) {
      const Byte* src = chunk.data() + pos + map.offsets[f];
      proj.insert(proj.end(), src, src + map.lengths[f]);
    }
    pos += sz;
  }
  chunk = std::move(proj);
  frame.header.inserts = map.descs;
  chunkSizes.assign(chunkSizes.size(), map.bytesPerElement);
  return true;
}

bool IStream::finishRecord(bool sorted, RecordFrame frame, ByteBuffer chunk,
                           std::vector<std::uint64_t> chunkSizes,
                           std::uint64_t flowId) {
  RecordHeader& header = frame.header;
  const bool sameLayout = header.layout == layout_;
  if (!sorted || sameLayout) {
    // unsortedRead, or a sorted read where nothing moved: phase-1 data is
    // final. (When layouts match, file order restricted to this node IS the
    // node's local order, so read() and unsortedRead() coincide — the paper's
    // "communication can be avoided" case.)
    buffer_ = std::move(chunk);
    elemSizes_ = std::move(chunkSizes);
    elemOffsets_.assign(elemSizes_.size(), 0);
    std::uint64_t off = 0;
    for (size_t j = 0; j < elemSizes_.size(); ++j) {
      elemOffsets_[j] = off;
      off += elemSizes_[j];
    }
  } else {
    // ---- phase 2: plan-based redistribution (paper §4.1) -------------------
    PCXX_OBS_PHASE(node_->obs(), "ds.redist", DsRedistSeconds);
    try {
      // Stream-level memo over the process-wide cache: the records of one
      // file usually share a writer layout, so repeat reads skip even the
      // cache-key encoding.
      if (plan_ != nullptr && planWriter_.has_value() &&
          *planWriter_ == header.layout) {
        PCXX_OBS_COUNT(node_->obs(), RedistPlanHits, 1);
      } else {
        plan_ = redist::planFor(header.layout, layout_, *node_);
        planWriter_ = header.layout;
      }
      redist::execute(*node_, *plan_, chunk, chunkSizes,
                      opts_.redistChunkBytes, buffer_, elemOffsets_,
                      elemSizes_, redistScratch_, flowId);
    } catch (const FormatError& e) {
      // Plan building is pure arithmetic over the broadcast header bytes,
      // so a FormatError (duplicate / out-of-range global index from a
      // corrupt header) is raised identically on every node BEFORE any
      // collective — the skip below is collectively consistent without a
      // vote.
      if (opts_.salvage) return skipDamage(frame.offset, frame.end, e.what());
      throw;
    }
  }

  fs_->model().chargeBookkeeping(*node_,
                                 static_cast<std::uint64_t>(localCount_));

  record_ = std::move(header);
  extractCursors_.assign(static_cast<size_t>(localCount_), 0);
  nextExtract_ = 0;
  state_ = protocol::next(state_, sorted ? Op::Read : Op::UnsortedRead);
  // A record only counts as *recovered* when salvage mode is actually
  // scanning past damage; clean reads must report a clean SalvageReport.
  if (opts_.salvage) salvage_.recordsRecovered += 1;
  if (sorted) {
    PCXX_OBS_COUNT(node_->obs(), DsReads, 1);
  } else {
    PCXX_OBS_COUNT(node_->obs(), DsUnsortedReads, 1);
  }
  // Terminate the record's flow chain: the record is fully assembled in
  // local order. "bp":"e" binds the arrow into the enclosing ds.read span.
  if (obs::NodeObs* o = node_->obs();
      flowId != 0 && o != nullptr && o->trace != nullptr) {
    o->trace->flowEnd(node_->id(), "ds.record", o->now(), flowId);
  }
  return true;
}

void IStream::setupPrefetch() {
  if (opts_.aioPrefetchDepth <= 0) return;
  // The plan runs on the prefetch thread: thread-safe pfs entry points and
  // pure decoding only, never a Node. Everything it needs is captured by
  // value. Anything the synchronous path would reject or salvage makes the
  // plan return false — a miss — so the node thread keeps ownership of all
  // error and salvage semantics.
  pfs::ParallelFilePtr file = file_;
  const int nodeId = node_->id();
  const std::int64_t localCount = localCount_;
  std::int64_t chunkStartElems = 0;
  for (int r = 0; r < nodeId; ++r) chunkStartElems += layout_.localCount(r);
  const std::int64_t layoutSize = layout_.size();
  const std::uint64_t pinnedEnd = chainEnd();
  auto plan = [file, nodeId, localCount, chunkStartElems, layoutSize,
               pinnedEnd](std::uint64_t offset, aio::PrefetchedRecord& out,
                          pfs::BgIoStats& stats) -> bool {
    int ops = 0;
    std::uint64_t bytes = 0;
    const auto read = [&](std::uint64_t at, std::span<Byte> buf) {
      ++ops;
      bytes += buf.size();
      return file->readAtBackground(nodeId, at, buf, stats);
    };
    // The same cursor and chain end as the synchronous path, so salvage
    // verdicts do not depend on the prefetch depth: any damage is a miss.
    const RecordCursor cursor(read, pinnedEnd);
    out.headerBytes = cursor.fetchHeader(offset);
    RecordStep step = cursor.frame(offset, out.headerBytes);
    if (!step.ok() || step.frame->header.elementCount() != layoutSize) {
      return false;
    }
    // A node cannot locate its phase-1 block without every preceding
    // node's chunk size, so the plan fetches the whole size table (there
    // are no collectives off the node thread).
    cursor.readSizeTable(step);
    if (!step.ok()) return false;
    const auto first = step.sizes.begin() + chunkStartElems;
    const auto last = first + localCount;
    const std::uint64_t before =
        std::accumulate(step.sizes.begin(), first, std::uint64_t{0});
    const std::uint64_t mine = std::accumulate(first, last, std::uint64_t{0});
    out.dataChunk.resize(static_cast<size_t>(mine));
    if (mine > 0 &&
        read(step.frame->dataOffset + before, out.dataChunk) != mine) {
      return false;
    }
    out.chunkSizes.assign(first, last);
    out.start = offset;
    out.next = step.resumeAt;
    out.bytesRead = bytes;
    out.readOps = ops;
    return true;
  };
  aio::Prefetcher::Options po;
  po.depth = opts_.aioPrefetchDepth;
  po.waitDeadlineSeconds = opts_.aioDrainDeadlineSeconds;
  prefetcher_ =
      std::make_unique<aio::Prefetcher>(node_->machine(), std::move(plan), po);
  restartPrefetch();
}

void IStream::restartPrefetch() {
  if (prefetcher_ == nullptr) return;
  prefetcher_->start(file_->sharedOffset());
  prefetchLive_ = true;
  prefetchEpoch_ = node_->clock().now();
  prefetchPrevReady_ = prefetchEpoch_;
  prefetchConsumedAt_.clear();
}

int IStream::tryPrefetched(bool sorted) {
  const std::uint64_t recordStart = file_->sharedOffset();
  std::optional<aio::PrefetchedRecord> rec;
  if (prefetchLive_) rec = prefetcher_->consume(recordStart);
  // Background accounting accrues whether or not the record is usable.
  const pfs::BgIoStats bg = prefetcher_->takeStatsDelta();
  PCXX_OBS_COUNT(node_->obs(), PfsRetries, bg.retries);
  PCXX_OBS_COUNT(node_->obs(), PfsGiveUps, bg.giveUps);
  PCXX_OBS_SECONDS(node_->obs(), PfsBackoffSeconds, bg.backoffSeconds);
  PCXX_OBS_COUNT(node_->obs(), AioBgReadBytes, bg.bytesRead);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecRawBytes, bg.codecRawBytes);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecStoredBytes, bg.codecStoredBytes);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecDedupHits, bg.codecDedupHits);
  PCXX_OBS_COUNT(node_->obs(), PfsCodecDamagedChunks, bg.codecDamagedChunks);
  PCXX_OBS_SECONDS(node_->obs(), PfsCodecSeconds, bg.codecSeconds);

  // The collective reads below must be entered by every node together, so
  // the fast path is all-or-nothing: one miss anywhere makes this record
  // synchronous everywhere.
  const std::uint64_t myHit = rec.has_value() ? 1 : 0;
  if (node_->allreduceSumU64(myHit) !=
      static_cast<std::uint64_t>(node_->nprocs())) {
    prefetchLive_ = false;  // readRecord re-aims the chain after the record
    PCXX_OBS_COUNT(node_->obs(), AioPrefetchMisses, 1);
    return -1;
  }

  aio::PrefetchedRecord r = std::move(*rec);
  // Modeled fetch timeline, maintained on the node thread so the simulated
  // overlap is independent of real scheduling: fetch k starts once fetch
  // k-1 finished AND its slot was free (record k-depth consumed); the
  // reader stalls only until this fetch's modeled completion.
  rt::VirtualClock& clock = node_->clock();
  const double fetchSeconds = fs_->model().backgroundOpSeconds(
      node_->nprocs(), r.readOps, r.bytesRead, file_->size(),
      /*isWrite=*/false);
  const size_t idx = prefetchConsumedAt_.size();
  const size_t depth = static_cast<size_t>(opts_.aioPrefetchDepth);
  const double gate =
      idx < depth ? prefetchEpoch_ : prefetchConsumedAt_[idx - depth];
  const double fetchStart = std::max(prefetchPrevReady_, gate);
  const double ready = fetchStart + fetchSeconds;
  prefetchPrevReady_ = ready;
  if (ready > clock.now()) {
    PCXX_OBS_SECONDS(node_->obs(), AioStallSeconds, ready - clock.now());
    // stallTo: prefetch catch-up is a local pipeline stall, already charged
    // to aio.stall_seconds — keep it out of the sync-wait bucket.
    clock.stallTo(ready);
  }
  prefetchConsumedAt_.push_back(clock.now());
  std::uint64_t rid = 0;
  {
    obs::NodeObs* o = node_->obs();
    if (o != nullptr && o->trace != nullptr && !o->wallTime) {
      // The record's flow chain starts inside the modeled prefetch span:
      // the background fetch is where the bytes came from, and the step on
      // the node track marks where they were consumed.
      rid = node_->machine().nextFlowId();
      const int track = o->trace->prefetchTrack(o->nodeId);
      o->trace->begin(track, "aio.prefetch", fetchStart);
      o->trace->flowStart(track, "ds.record", fetchStart, rid);
      o->trace->end(track, "aio.prefetch", ready);
      o->trace->flowStep(o->nodeId, "ds.record", o->now(), rid);
    }
  }
  PCXX_OBS_COUNT(node_->obs(), AioPrefetchHits, 1);

  // The plan framed these exact bytes under the same chain end, so this
  // step is ok; every node holds an identical copy (no broadcast needed).
  RecordStep step = cursor(false).frame(recordStart, r.headerBytes);
  PCXX_CHECK(step.ok());
  RecordFrame frame = std::move(*step.frame);
  PCXX_OBS_COUNT(node_->obs(), DsHeaderDecodes, 1);

  // The plan already checked the whole table, so the salvage
  // cross-check passes on every node that voted hit.
  std::vector<std::uint64_t> chunkSizes = std::move(r.chunkSizes);
  std::uint64_t myChunkBytes = 0;
  if (!checkSizeSum(frame, chunkSizes, myChunkBytes)) {
    restartPrefetch();
    return 0;
  }
  // The chunks were fetched positionally; advance the shared cursor past
  // the data section (collective) so the stream sits exactly where the
  // synchronous path would before its trailer check.
  file_->seekShared(*node_, frame.end - frame.header.trailerBytes());
  if (!checkTrailer(frame, r.dataChunk, myChunkBytes)) {
    restartPrefetch();
    return 0;
  }
  if (!projection_.empty()) {
    // The full chunk is already in memory (and CRC-verified above), so the
    // projection is a stride copy rather than a strided read.
    if (!applyProjectionInMemory(frame, r.dataChunk, chunkSizes)) {
      restartPrefetch();
      return 0;
    }
    PCXX_OBS_COUNT(node_->obs(), DsIndexProjections, 1);
  }
  if (!finishRecord(sorted, std::move(frame), std::move(r.dataChunk),
                    std::move(chunkSizes), rid)) {
    // Salvage skipped a record whose header routes a corrupt element set;
    // the shared cursor moved past it.
    restartPrefetch();
    return 0;
  }
  return 1;
}

}  // namespace pcxx::ds
