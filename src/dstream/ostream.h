// OStream: the output d/stream (paper §3, §4.1).
//
// Usage follows the paper's Figure 3 exactly (modulo C++ rendering of the
// pC++ field syntax):
//
//   OStream s(&d, &a, "wholeGridFile");            // open
//   s << g;                                        // insert a collection
//   s << g.field(&ParticleList::numberOfParticles);// insert one field
//   s << g2.field(&Cell::particleDensity);         // interleaved with above
//   s.write();                                     // write one record
//   ...                                            // more insert/write
//   // close happens in the destructor
//
// insert records per-element pointer lists (deferred copy, Figure 4);
// write() packs local entries into a per-node buffer and issues the
// node-order parallel write, preceded by the record header and per-element
// size table — gathered to node 0 for small collections, written in
// parallel for large ones (§4.1 step 1). All methods are collective: every
// node of the machine calls them with matching arguments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aio/aio.h"
#include "collection/collection.h"
#include "dsindex/dsindex.h"
#include "dstream/element_io.h"
#include "dstream/protocol.h"
#include "dstream/record.h"
#include "dstream/stream_common.h"
#include "dstream/typetag.h"
#include "pfs/parallel_file.h"
#include "runtime/machine.h"

namespace pcxx::ds {

class OStream {
 public:
  /// Open (create/truncate, or append with opts.append) `fileName` on `fs`
  /// for collections distributed by (d, a).
  OStream(pfs::Pfs& fs, const coll::Distribution* d, const coll::Align* a,
          const std::string& fileName, StreamOptions opts = {});

  /// Same, with identity alignment.
  OStream(pfs::Pfs& fs, const coll::Distribution* d,
          const std::string& fileName, StreamOptions opts = {});

  /// Paper-style constructors using the process-default file system
  /// (setDefaultPfs): `OStream s(&d, &a, "wholeGridFile");`
  OStream(const coll::Distribution* d, const coll::Align* a,
          const std::string& fileName, StreamOptions opts = {});
  OStream(const coll::Distribution* d, const std::string& fileName,
          StreamOptions opts = {});

  /// Attach to an already-open shared file (several streams with differing
  /// distributions writing records to one file).
  OStream(pfs::Pfs& fs, pfs::ParallelFilePtr file, coll::Layout layout,
          StreamOptions opts = {});

  ~OStream();
  OStream(const OStream&) = delete;
  OStream& operator=(const OStream&) = delete;

  /// Insert a whole collection: every local element's insertion function
  /// appends to that element's pointer list.
  template <typename T>
  OStream& operator<<(coll::Collection<T>& g) {
    checkInsert(g.layout());
    beginInsert(typeTag<T>(), InsertKind::Collection,
                detail::kStreamableScalar<T> ? sizeof(T) : 0);
    const std::int64_t n = g.localCount();
    for (std::int64_t j = 0; j < n; ++j) {
      ElementInserter ins(entriesFor(j), arena_);
      insertElement(ins, g.local(j));
    }
    return *this;
  }

  /// Insert a single field of every element (the paper's
  /// `s << g.numberOfParticles`).
  template <typename T, typename M>
  OStream& operator<<(coll::FieldRef<T, M> f) {
    coll::Collection<T>& g = f.collection();
    checkInsert(g.layout());
    beginInsert(typeTag<M>(), InsertKind::Field,
                detail::kStreamableScalar<M> ? sizeof(M) : 0);
    const std::int64_t n = g.localCount();
    for (std::int64_t j = 0; j < n; ++j) {
      ElementInserter ins(entriesFor(j), arena_);
      ins << f.of(g.local(j));
    }
    return *this;
  }

  /// Write one record: distribution + size information, then the data, via
  /// the node-order parallel write. Requires at least one insert. With
  /// StreamOptions::aioQueueDepth > 0 the data transfer is handed to this
  /// node's write-behind flusher and write() returns after the collective
  /// reservation; a failed background flush surfaces here (on the next
  /// write) or at close(), never silently.
  void write();

  /// Close the stream (also called by the destructor). Pending inserts that
  /// were never written are an error when closing explicitly. Drains the
  /// write-behind queue first: close() returning normally means every
  /// record is in storage. With StreamOptions::indexFooter the close then
  /// appends the dsindex footer (docs/FORMAT.md, "Index footer") so readers
  /// can seek records in O(1).
  void close();

  /// True when asynchronous write-behind is active for this stream.
  bool asyncActive() const { return writer_ != nullptr; }

  /// Staging buffers ever allocated by the write-behind pool (testing the
  /// steady-state-allocation-zero property); 0 when synchronous.
  int asyncBufferAllocations() const {
    return writer_ != nullptr ? writer_->bufferAllocations() : 0;
  }

  const coll::Layout& layout() const { return layout_; }
  const std::string& fileName() const { return file_->name(); }
  std::uint32_t recordsWritten() const { return recordSeq_; }

  /// Entry lists currently pending for the j-th local element (testing).
  std::int64_t pendingInsertCount() const {
    return static_cast<std::int64_t>(descs_.size());
  }

 private:
  void openFile(const std::string& fileName);
  void setupAsync();
  void checkInsert(const coll::Layout& collectionLayout) const;
  void beginInsert(std::uint32_t tag, InsertKind kind,
                   std::uint32_t fixedPerElement);
  std::vector<Entry>& entriesFor(std::int64_t localIdx);
  HeaderMode chooseHeaderMode() const;
  std::uint32_t layoutDigest();
  /// Append the index footer at the shared cursor. Collective-free by
  /// design (the cursor is already identical on every node and only node 0
  /// writes) so the destructor may call it safely.
  void appendFooter();

  rt::Node* node_;
  pfs::Pfs* fs_;
  pfs::ParallelFilePtr file_;
  coll::Layout layout_;
  StreamOptions opts_;
  protocol::OutState state_ = protocol::OutState::Ready;
  std::int64_t localCount_;

  std::vector<InsertDesc> descs_;
  std::vector<std::vector<Entry>> pending_;  // per local element
  detail::Arena arena_;
  std::uint32_t recordSeq_ = 0;
  std::unique_ptr<aio::Writer> writer_;  // null = synchronous path
  /// Synchronous path's pack buffer, kept at high-water capacity.
  ByteBuffer packBuffer_;

  // dsindex footer state: entries accumulate per write() and are appended
  // as the footer on close. Disabled for attach-to-shared-file streams
  // (they do not own the file end) and when appending to a file that has
  // no valid footer to extend.
  dsindex::FileIndex index_;
  bool footerEnabled_ = false;
  /// Offset of a stale index trailer left by append-mode open (0 = none).
  /// Zeroed by the first write(): if it outlived the appended records — a
  /// crash, or a teardown path that skips appendFooter() — readers would
  /// keep trusting it and pin the chain end before the new records.
  std::uint64_t staleTrailerAt_ = 0;
  std::uint32_t layoutDigest_ = 0;
  bool layoutDigestReady_ = false;
};

}  // namespace pcxx::ds
