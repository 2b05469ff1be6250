// Storage backends for the parallel file system substrate.
//
// A StorageBackend is a flat, thread-safe byte array with read/write-at
// semantics. The pfs layer puts striping, node-order collective operations,
// timing models, and fault injection on top; backends only store bytes.
//
//  * MemStorage   — in-memory; used by tests and by simulation-mode benches
//                   (data correctness is still fully exercised). The bytes
//                   live in 2 MiB anonymous extents mapped as the file
//                   grows: growth never copies the file, and fresh pages
//                   arrive zeroed from the kernel rather than by a
//                   user-space fill. Every extent past the first is
//                   2 MiB-aligned and advised MADV_HUGEPAGE, so a file
//                   larger than 2 MiB is backed by transparent huge pages
//                   (one fault per 2 MiB) while a small file stays on
//                   4 KiB pages and never faults a 2 MiB page. With THP
//                   `never` the advice is a no-op: growth still copies
//                   nothing and zero-fills nothing, but every 4 KiB page
//                   faults on first touch.
//  * PosixStorage — a real file accessed with pread/pwrite; used by
//                   real-time benches and by the examples so outputs are
//                   inspectable on disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace pcxx::pfs {

/// Flat byte storage with positional I/O. All methods are thread-safe.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Write `data` at `offset`, extending the file as needed. An empty
  /// write is a no-op (it never extends the file); a range that wraps
  /// 2^64 or exceeds the backend's size limit throws IoError.
  virtual void writeAt(std::uint64_t offset, std::span<const Byte> data) = 0;

  /// Read up to `out.size()` bytes at `offset`; returns bytes actually read
  /// (fewer only at end-of-file).
  virtual std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) = 0;

  virtual std::uint64_t size() = 0;
  virtual void truncate(std::uint64_t newSize) = 0;
  /// Flush to durable storage (no-op for memory).
  virtual void sync() = 0;
};

/// In-memory backend over 2 MiB anonymous extents. Growth and truncate
/// take the lock exclusively; copies into or out of mapped extents share
/// it, so node-order writes to disjoint ranges proceed in parallel.
/// Invariant: every mapped byte at or past size() is zero, so an extending
/// write or a regrowing truncate exposes zeros.
class MemStorage final : public StorageBackend {
 public:
  MemStorage() = default;
  ~MemStorage() override;
  MemStorage(const MemStorage&) = delete;
  MemStorage& operator=(const MemStorage&) = delete;

  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override {}

 private:
  /// Map extents until `end` bytes are covered. Requires the exclusive lock.
  void reserve(std::uint64_t end);

  std::shared_mutex mu_;
  std::vector<Byte*> extents_;
  std::atomic<std::uint64_t> size_{0};
};

/// POSIX file backend (pread/pwrite on a real file descriptor).
class PosixStorage final : public StorageBackend {
 public:
  /// Opens (creating if necessary) the file at `path`. Throws IoError.
  explicit PosixStorage(const std::string& path);
  ~PosixStorage() override;

  PosixStorage(const PosixStorage&) = delete;
  PosixStorage& operator=(const PosixStorage&) = delete;

  void writeAt(std::uint64_t offset, std::span<const Byte> data) override;
  std::uint64_t readAt(std::uint64_t offset, std::span<Byte> out) override;
  std::uint64_t size() override;
  void truncate(std::uint64_t newSize) override;
  void sync() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace pcxx::pfs
