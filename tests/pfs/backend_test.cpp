// Unit tests for the storage backends (memory and POSIX).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/pfs/backend.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::pfs;

class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "posix") {
      dir_ = std::filesystem::temp_directory_path() /
             ("pcxx_backend_" + std::to_string(::getpid()));
      std::filesystem::create_directories(dir_);
      storage_ = std::make_unique<PosixStorage>((dir_ / "file").string());
    } else {
      storage_ = std::make_unique<MemStorage>();
    }
  }
  void TearDown() override {
    storage_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<StorageBackend> storage_;
  std::filesystem::path dir_;
};

TEST_P(BackendTest, StartsEmpty) {
  EXPECT_EQ(storage_->size(), 0u);
  ByteBuffer out(10);
  EXPECT_EQ(storage_->readAt(0, out), 0u);
}

TEST_P(BackendTest, WriteReadRoundTrip) {
  ByteBuffer data{1, 2, 3, 4, 5};
  storage_->writeAt(0, data);
  EXPECT_EQ(storage_->size(), 5u);
  ByteBuffer out(5);
  EXPECT_EQ(storage_->readAt(0, out), 5u);
  EXPECT_EQ(out, data);
}

TEST_P(BackendTest, WriteBeyondEndCreatesHole) {
  ByteBuffer data{9, 9};
  storage_->writeAt(100, data);
  EXPECT_EQ(storage_->size(), 102u);
  ByteBuffer out(102);
  EXPECT_EQ(storage_->readAt(0, out), 102u);
  EXPECT_EQ(out[50], 0);  // hole reads as zero
  EXPECT_EQ(out[100], 9);
}

TEST_P(BackendTest, PartialReadAtEof) {
  ByteBuffer data{1, 2, 3};
  storage_->writeAt(0, data);
  ByteBuffer out(10);
  EXPECT_EQ(storage_->readAt(1, out), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
}

TEST_P(BackendTest, OverwriteInPlace) {
  storage_->writeAt(0, ByteBuffer{1, 2, 3, 4});
  storage_->writeAt(1, ByteBuffer{9, 9});
  ByteBuffer out(4);
  storage_->readAt(0, out);
  EXPECT_EQ(out, (ByteBuffer{1, 9, 9, 4}));
}

TEST_P(BackendTest, TruncateShrinksAndGrows) {
  storage_->writeAt(0, ByteBuffer{1, 2, 3, 4});
  storage_->truncate(2);
  EXPECT_EQ(storage_->size(), 2u);
  storage_->truncate(6);
  EXPECT_EQ(storage_->size(), 6u);
  ByteBuffer out(6);
  EXPECT_EQ(storage_->readAt(0, out), 6u);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[3], 0);  // regrown region is zero
}

TEST_P(BackendTest, SyncSucceeds) {
  storage_->writeAt(0, ByteBuffer{1});
  EXPECT_NO_THROW(storage_->sync());
}

TEST_P(BackendTest, LargeWrite) {
  ByteBuffer big(3 * 1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<Byte>(i * 7);
  }
  storage_->writeAt(0, big);
  ByteBuffer out(big.size());
  EXPECT_EQ(storage_->readAt(0, out), big.size());
  EXPECT_EQ(out, big);
}

// Both backends agree that an empty write touches nothing, even past EOF.
TEST_P(BackendTest, EmptyWriteIsNoOp) {
  storage_->writeAt(100, {});
  EXPECT_EQ(storage_->size(), 0u);
  storage_->writeAt(0, ByteBuffer{1, 2, 3});
  storage_->writeAt(100, {});
  EXPECT_EQ(storage_->size(), 3u);
}

// A range that wraps 2^64 is rejected before any byte lands.
TEST_P(BackendTest, WrappingWriteThrows) {
  storage_->writeAt(0, ByteBuffer(16, 7));
  EXPECT_THROW(storage_->writeAt(std::numeric_limits<std::uint64_t>::max() - 1,
                                 ByteBuffer{1, 2, 3, 4}),
               IoError);
  EXPECT_EQ(storage_->size(), 16u);
  ByteBuffer out(16);
  EXPECT_EQ(storage_->readAt(0, out), 16u);
  EXPECT_EQ(out, ByteBuffer(16, 7));
}

ByteBuffer pattern(std::uint64_t from, size_t n) {
  ByteBuffer b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<Byte>((from + i) * 131 + ((from + i) >> 12));
  }
  return b;
}

// Appends that cross the 4 KiB, 2 MiB and multi-MiB growth steps keep
// every earlier byte.
TEST_P(BackendTest, GrowthStepsKeepEarlierBytes) {
  std::uint64_t size = 0;
  for (const std::uint64_t end :
       {std::uint64_t{1000}, std::uint64_t{4096}, std::uint64_t{5000},
        std::uint64_t{1} << 20, (std::uint64_t{2} << 20) - 1,
        (std::uint64_t{2} << 20) + 1, std::uint64_t{5} << 20,
        (std::uint64_t{9} << 20) + 333}) {
    storage_->writeAt(size, pattern(size, static_cast<size_t>(end - size)));
    size = end;
    ASSERT_EQ(storage_->size(), size);
  }
  ByteBuffer out(static_cast<size_t>(size));
  ASSERT_EQ(storage_->readAt(0, out), size);
  EXPECT_TRUE(out == pattern(0, out.size()));
}

// A shrink drops the tail for good: regrowing past it exposes zeros.
TEST_P(BackendTest, ShrinkThenRegrowReadsZero) {
  constexpr std::uint64_t kMiB = std::uint64_t{1} << 20;
  storage_->writeAt(0, ByteBuffer(5 * kMiB, 0xAB));
  storage_->truncate(1024);
  storage_->writeAt(4 * kMiB, ByteBuffer{1, 2, 3});
  EXPECT_EQ(storage_->size(), 4 * kMiB + 3);
  ByteBuffer out(static_cast<size_t>(4 * kMiB + 3));
  ASSERT_EQ(storage_->readAt(0, out), out.size());
  EXPECT_TRUE(std::all_of(out.begin(), out.begin() + 1024,
                          [](Byte b) { return b == 0xAB; }));
  EXPECT_TRUE(std::all_of(out.begin() + 1024, out.begin() + 4 * kMiB,
                          [](Byte b) { return b == 0; }));
  EXPECT_EQ(out[4 * kMiB + 2], 3);
}

// Node-order writes: every thread extends the file through its own
// disjoint extents while the others do the same.
TEST_P(BackendTest, ConcurrentDisjointExtendingWrites) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 24;
  constexpr size_t kBlock = 96 * 1024;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t at =
            static_cast<std::uint64_t>(r * kThreads + t) * kBlock;
        storage_->writeAt(at, pattern(at, kBlock));
        ByteBuffer back(kBlock);
        EXPECT_EQ(storage_->readAt(at, back), kBlock);
        EXPECT_TRUE(back == pattern(at, kBlock));
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::uint64_t total = std::uint64_t{kThreads} * kRounds * kBlock;
  EXPECT_EQ(storage_->size(), total);
  ByteBuffer out(static_cast<size_t>(total));
  ASSERT_EQ(storage_->readAt(0, out), total);
  EXPECT_TRUE(out == pattern(0, out.size()));
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values("memory", "posix"));

// Extents are mapped lazily, so a far offset must be refused up front
// rather than mapping extents until the address space runs out.
TEST(MemStorage, WriteBeyondPhysicalMemoryThrows) {
  MemStorage s;
  EXPECT_THROW(s.writeAt(std::uint64_t{1} << 50, ByteBuffer{1}), IoError);
  EXPECT_EQ(s.size(), 0u);
}

TEST(PosixStorage, PersistsAcrossReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pcxx_persist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "f").string();
  {
    PosixStorage s(path);
    s.writeAt(0, ByteBuffer{42, 43});
    s.sync();
  }
  {
    PosixStorage s(path);
    ByteBuffer out(2);
    EXPECT_EQ(s.readAt(0, out), 2u);
    EXPECT_EQ(out[0], 42);
  }
  std::filesystem::remove_all(dir);
}

TEST(PosixStorage, OpenInMissingDirectoryThrows) {
  EXPECT_THROW(PosixStorage("/nonexistent_dir_pcxx/f"), IoError);
}

}  // namespace
