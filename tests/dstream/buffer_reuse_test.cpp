// Synchronous streams reuse their record buffers: OStream keeps its pack
// buffer across write() calls, and a conforming IStream read (unsorted, or
// same layout) lands in the previous record's buffer. Records whose
// per-node sizes shrink and then grow must still write the same bytes as
// the write-behind path and read back exactly on every read path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/pfs/parallel_file.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

constexpr int kNodes = 3;
constexpr std::int64_t kElems = 24;
constexpr int kRecords = 3;
/// Per-element payload base per record: shrink, then grow past the first.
constexpr int kBase[kRecords] = {30, 4, 50};

struct Particle {
  int n = 0;
  double* data = nullptr;
  ~Particle() { delete[] data; }
  Particle() = default;
  Particle(const Particle&) = delete;
  Particle& operator=(const Particle&) = delete;
};

declareStreamInserter(Particle& e) {
  s << e.n;
  s << pcxx::ds::array(e.data, e.n);
}
declareStreamExtractor(Particle& e) {
  int n = 0;
  s >> n;
  if (n != e.n) {
    delete[] e.data;
    e.data = n > 0 ? new double[static_cast<size_t>(n)] : nullptr;
    e.n = n;
  }
  s >> pcxx::ds::array(e.data, e.n);
}

int countOf(int rec, std::int64_t g) {
  return kBase[rec] + static_cast<int>(g % 5);
}
double valueOf(int rec, std::int64_t g, int k) {
  return static_cast<double>(rec * 1000000 + g * 1000 + k);
}

void fill(coll::Collection<Particle>& c, int rec) {
  c.forEachLocal([rec](Particle& e, std::int64_t g) {
    delete[] e.data;
    e.n = countOf(rec, g);
    e.data = new double[static_cast<size_t>(e.n)];
    for (int k = 0; k < e.n; ++k) e.data[k] = valueOf(rec, g, k);
  });
}

/// True when `e` holds record `rec`'s payload of element `g`.
bool holds(const Particle& e, int rec, std::int64_t g) {
  if (e.n != countOf(rec, g)) return false;
  for (int k = 0; k < e.n; ++k) {
    if (e.data[k] != valueOf(rec, g, k)) return false;
  }
  return true;
}

/// Write the records from a BLOCK layout at `queueDepth` and return the
/// finished file's bytes.
ByteBuffer writeFile(pfs::Pfs& fs, const std::string& name, int queueDepth) {
  ByteBuffer bytes;
  test::runSpmd(kNodes, [&](rt::Node& node) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<Particle> c(&d);
    ds::StreamOptions so;
    so.aioQueueDepth = queueDepth;
    ds::OStream s(fs, &d, name, so);
    for (int rec = 0; rec < kRecords; ++rec) {
      fill(c, rec);
      s << c;
      s.write();
    }
    s.close();
    auto f = fs.open(node, name, pfs::OpenMode::Read);
    if (node.id() == 0) {
      bytes.resize(static_cast<size_t>(f->size()));
      if (f->readAt(node, 0, bytes) != bytes.size()) {
        throw IoError("buffer_reuse: short read of the finished file");
      }
    }
    node.barrier();
  });
  return bytes;
}

enum class ReadPath { Unsorted, SameLayout, Redistributed };

/// Read every record back at prefetch depth 0 and count wrong elements.
/// Sorted reads must place element g at global index g; an unsorted read
/// under a CYCLIC reader gets the elements in file order, so there each
/// element must hold some writer element's payload and every writer
/// element must arrive exactly once.
std::int64_t readBack(pfs::Pfs& fs, const std::string& name, ReadPath path) {
  std::atomic<std::int64_t> bad{0};
  std::vector<std::atomic<int>> arrivals(kElems);
  test::runSpmd(kNodes, [&](rt::Node&) {
    coll::Processors P;
    const bool cyclic = path != ReadPath::SameLayout;
    coll::Distribution d(kElems, &P,
                         cyclic ? coll::DistKind::Cyclic
                                : coll::DistKind::Block);
    coll::Collection<Particle> back(&d);
    ds::IStream is(fs, &d, name);
    for (int rec = 0; rec < kRecords; ++rec) {
      if (path == ReadPath::Unsorted) {
        is.unsortedRead();
      } else {
        is.read();
      }
      is >> back;
      back.forEachLocal([&](Particle& e, std::int64_t g) {
        if (path != ReadPath::Unsorted) {
          if (!holds(e, rec, g)) bad.fetch_add(1);
          return;
        }
        const std::int64_t from =
            e.n > 0 ? static_cast<std::int64_t>(e.data[0]) % 1000000 / 1000
                    : -1;
        if (from < 0 || from >= kElems || !holds(e, rec, from)) {
          bad.fetch_add(1);
        } else {
          arrivals[static_cast<size_t>(from)].fetch_add(1);
        }
      });
    }
  });
  if (path == ReadPath::Unsorted) {
    for (const auto& a : arrivals) {
      if (a.load() != kRecords) bad.fetch_add(1);
    }
  }
  return bad.load();
}

TEST(BufferReuse, SynchronousWriteMatchesWriteBehindBytes) {
  pfs::Pfs fs = test::memFs();
  const ByteBuffer sync = writeFile(fs, "sync", 0);
  const ByteBuffer behind = writeFile(fs, "behind", 1);
  ASSERT_FALSE(sync.empty());
  EXPECT_TRUE(sync == behind);
}

TEST(BufferReuse, UnsortedReadsRecoverEveryValue) {
  pfs::Pfs fs = test::memFs();
  writeFile(fs, "f", 0);
  EXPECT_EQ(readBack(fs, "f", ReadPath::Unsorted), 0);
}

TEST(BufferReuse, SameLayoutSortedReadsRecoverEveryValue) {
  pfs::Pfs fs = test::memFs();
  writeFile(fs, "f", 0);
  EXPECT_EQ(readBack(fs, "f", ReadPath::SameLayout), 0);
}

TEST(BufferReuse, RedistributedReadsRecoverEveryValue) {
  pfs::Pfs fs = test::memFs();
  writeFile(fs, "f", 0);
  EXPECT_EQ(readBack(fs, "f", ReadPath::Redistributed), 0);
}

}  // namespace
