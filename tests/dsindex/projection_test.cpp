// Field projection (IStream::project): a projected read must deliver
// exactly the bytes a full read delivers for the projected fields — across
// interleave layouts and distributions, through the prefetch path, in
// salvage mode, and under an attached observer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "src/dstream/dstream.h"
#include "src/dstream/inspect.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;

struct Cell {
  int count = 0;
  double density = 0.0;
};

/// Write one record interleaving three inserts: [0] a whole int collection,
/// [1] a double field, [2] an int field.
void writeMixed(pfs::Pfs& fs, const std::string& name, std::int64_t n,
                coll::DistKind kind, int records = 1,
                ds::StreamOptions so = {}) {
  coll::Processors P;
  coll::Distribution d(n, &P, kind);
  coll::Collection<int> whole(&d);
  coll::Collection<Cell> cells(&d);
  ds::OStream s(fs, &d, name, so);
  for (int r = 0; r < records; ++r) {
    whole.forEachLocal([r](int& v, std::int64_t i) {
      v = static_cast<int>(i * 3 + r);
    });
    cells.forEachLocal([r](Cell& c, std::int64_t i) {
      c.count = static_cast<int>(i + 100 * r);
      c.density = 0.25 * static_cast<double>(i) + r;
    });
    s << whole;
    s << cells.field(&Cell::density);
    s << cells.field(&Cell::count);
    s.write();
  }
}

TEST(Projection, SingleFieldMatchesFullExtract) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 14;
  for (auto kind : {coll::DistKind::Block, coll::DistKind::Cyclic}) {
    rt::Machine m(3);
    m.run([&](rt::Node&) {
      coll::Processors P;
      coll::Distribution d(n, &P, kind);
      writeMixed(fs, "mix.ds", n, kind);

      // Full read: all three inserts.
      coll::Collection<int> fullWhole(&d);
      coll::Collection<Cell> fullCells(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.read();
        is >> fullWhole;
        is >> fullCells.field(&Cell::density);
        is >> fullCells.field(&Cell::count);
      }

      // Projected read of just the density field (insert position 1).
      coll::Collection<Cell> projCells(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.project({1});
        is.read();
        EXPECT_EQ(is.currentRecord().inserts.size(), 1u);
        is >> projCells.field(&Cell::density);
      }
      projCells.forEachLocal([&](Cell& c, std::int64_t g) {
        EXPECT_DOUBLE_EQ(c.density, fullCells.at(g).density) << g;
      });

      // Projected read of inserts {0, 2}, skipping the middle field.
      coll::Collection<int> projWhole(&d);
      coll::Collection<Cell> projCells2(&d);
      {
        ds::IStream is(fs, &d, "mix.ds");
        is.project({0, 2});
        is.read();
        EXPECT_EQ(is.currentRecord().inserts.size(), 2u);
        is >> projWhole;
        is >> projCells2.field(&Cell::count);
      }
      projWhole.forEachLocal([&](int& v, std::int64_t g) {
        EXPECT_EQ(v, fullWhole.at(g)) << g;
      });
      projCells2.forEachLocal([&](Cell& c, std::int64_t g) {
        EXPECT_EQ(c.count, fullCells.at(g).count) << g;
      });
    });
  }
}

TEST(Projection, WorksAcrossLayoutChange) {
  // Written Block on 4 nodes, read Cyclic: the strided read composes with
  // the redistribution exchange.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 18;
  rt::Machine m(4);
  m.run([&](rt::Node&) {
    writeMixed(fs, "relayout.ds", n, coll::DistKind::Block);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Cyclic);
    coll::Collection<Cell> cells(&d);
    ds::IStream is(fs, &d, "relayout.ds");
    is.project({1});
    is.read();
    is >> cells.field(&Cell::density);
    cells.forEachLocal([](Cell& c, std::int64_t g) {
      EXPECT_DOUBLE_EQ(c.density, 0.25 * static_cast<double>(g));
    });
  });
}

TEST(Projection, PrefetchPathMatchesSynchronous) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 12;
  const int records = 4;
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    writeMixed(fs, "pf.ds", n, coll::DistKind::Block, records);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);

    auto readAll = [&](int prefetchDepth) {
      std::vector<double> got;
      ds::StreamOptions so;
      so.aioPrefetchDepth = prefetchDepth;
      ds::IStream is(fs, &d, "pf.ds", so);
      EXPECT_EQ(is.asyncActive(), prefetchDepth > 0);
      is.project({1});
      coll::Collection<Cell> cells(&d);
      for (int r = 0; r < records; ++r) {
        is.read();
        is >> cells.field(&Cell::density);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          got.push_back(c.density);
        });
      }
      return got;
    };

    const std::vector<double> sync = readAll(0);
    const std::vector<double> prefetched = readAll(2);
    EXPECT_EQ(sync, prefetched);
  });
}

TEST(Projection, SalvageSkipsDamagedRecordInBothPaths) {
  // Record 1's header is corrupted; salvage-mode reads deliver records 0
  // and 2 — projected exactly as a full read does.
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 10;
  rt::Machine m(2);
  std::uint64_t record1At = 0;
  m.run([&](rt::Node&) { writeMixed(fs, "dmg.ds", n, coll::DistKind::Block, 3); });
  {
    // Locate record 1 offline via the inspector.
    ByteBuffer image;
    rt::Machine probe(1);
    probe.run([&](rt::Node& node) {
      auto f = fs.open(node, "dmg.ds", pfs::OpenMode::Read);
      image.resize(static_cast<size_t>(f->size()));
      f->readAt(node, 0, image);
    });
    pfs::MemStorage storage;
    storage.writeAt(0, image);
    const ds::FileInfo info = ds::inspectFile(storage);
    ASSERT_EQ(info.records.size(), 3u);
    record1At = info.records[1].offset;
  }
  // Flip a byte inside record 1's header, past the magic+length prefix, so
  // the damage is a CRC mismatch rather than a framing error.
  fs.corruptByte("dmg.ds", record1At + 13, Byte{0xAB});

  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    ds::StreamOptions so;
    so.salvage = true;

    std::vector<int> fullCounts;
    {
      ds::IStream is(fs, &d, "dmg.ds", so);
      coll::Collection<int> whole(&d);
      coll::Collection<Cell> cells(&d);
      while (!is.atEnd()) {
        is.read();
        if (!is.hasRecord()) continue;
        is >> whole;
        is >> cells.field(&Cell::density);
        is >> cells.field(&Cell::count);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          fullCounts.push_back(c.count);
        });
      }
      EXPECT_EQ(is.salvageReport().recordsLost, 1u);
    }

    std::vector<int> projCounts;
    {
      ds::IStream is(fs, &d, "dmg.ds", so);
      is.project({2});
      coll::Collection<Cell> cells(&d);
      while (!is.atEnd()) {
        is.read();
        if (!is.hasRecord()) continue;
        is >> cells.field(&Cell::count);
        cells.forEachLocal([&](Cell& c, std::int64_t) {
          projCounts.push_back(c.count);
        });
      }
      EXPECT_EQ(is.salvageReport().recordsLost, 1u);
    }
    EXPECT_EQ(projCounts, fullCounts);
  });
}

TEST(Projection, ObserverCountsProjectedRecords) {
  pfs::Pfs fs = test::memFs();
  const std::int64_t n = 8;
  rt::Machine m(2);
  obs::MetricsRegistry reg(2);
  obs::Observer observer;
  observer.metrics = &reg;
  m.attachObserver(observer);
  std::atomic<std::int64_t> bad{0};
  m.run([&](rt::Node&) {
    writeMixed(fs, "obs.ds", n, coll::DistKind::Block, 2);
    coll::Processors P;
    coll::Distribution d(n, &P, coll::DistKind::Block);
    coll::Collection<Cell> cells(&d);
    ds::IStream is(fs, &d, "obs.ds");
    is.project({1});
    for (int r = 0; r < 2; ++r) {
      is.read();
      is >> cells.field(&Cell::density);
      cells.forEachLocal([&, r](Cell& c, std::int64_t g) {
        if (c.density != 0.25 * static_cast<double>(g) + r) bad.fetch_add(1);
      });
    }
  });
  m.detachObserver();
  EXPECT_EQ(bad.load(), 0);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.merged.counter(obs::Counter::DsIndexProjections), 4u);
}

struct Var {
  int n = 0;
  double* data = nullptr;
  ~Var() { delete[] data; }
  Var() = default;
  Var(const Var&) = delete;
  Var& operator=(const Var&) = delete;
};

declareStreamInserter(Var& e) {
  s << e.n;
  s << pcxx::ds::array(e.data, e.n);
}
declareStreamExtractor(Var& e) {
  s >> e.n;
  s >> pcxx::ds::array(e.data, e.n);
}

TEST(Projection, VariableSizeFieldRejected) {
  // Inserting a variable-size element before (or at) a projected index has
  // no fixed per-element stride — project() must refuse at read time.
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  EXPECT_THROW(
      m.run([&](rt::Node&) {
        coll::Processors P;
        coll::Distribution d(6, &P, coll::DistKind::Block);
        coll::Collection<Var> g(&d);
        g.forEachLocal([](Var& e, std::int64_t i) {
          e.n = static_cast<int>(i % 3);
          delete[] e.data;
          e.data = e.n > 0 ? new double[static_cast<size_t>(e.n)] : nullptr;
          for (int k = 0; k < e.n; ++k) e.data[k] = 1.0;
        });
        {
          ds::OStream s(fs, &d, "var.ds");
          s << g.field(&Var::n);
          s << g;  // variable-size whole-element insert
          s.write();
        }
        ds::IStream is(fs, &d, "var.ds");
        is.project({1});  // the variable insert itself
        is.read();
      }),
      UsageError);

  // Projecting only the fixed prefix of the same file is legal.
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(6, &P, coll::DistKind::Block);
    coll::Collection<Var> g(&d);
    ds::IStream is(fs, &d, "var.ds");
    is.project({0});
    is.read();
    is >> g.field(&Var::n);
    g.forEachLocal([](Var& e, std::int64_t i) {
      EXPECT_EQ(e.n, static_cast<int>(i % 3));
    });
  });
}

}  // namespace
