#include "pfs/backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <mutex>

#include "util/error.h"
#include "util/strfmt.h"

namespace pcxx::pfs {

// ---------------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------------

namespace {

/// Extent size: one transparent huge page.
constexpr std::uint64_t kExtentBytes = std::uint64_t{2} << 20;

/// The largest offset MemStorage accepts: PosixStorage's off_t limit.
constexpr std::uint64_t kMaxFileBytes =
    static_cast<std::uint64_t>(std::numeric_limits<off_t>::max());

std::uint64_t pageBytes() {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::uint64_t roundUp(std::uint64_t v, std::uint64_t unit) {
  return (v + unit - 1) / unit * unit;
}

/// `offset + bytes`, or IoError when the range wraps 2^64 or passes the
/// file size limit (PosixStorage gets the same verdict from pwrite).
std::uint64_t checkedEnd(std::uint64_t offset, std::uint64_t bytes) {
  if (offset > kMaxFileBytes || bytes > kMaxFileBytes - offset) {
    throw IoError(strfmt("MemStorage: range at offset %llu of %llu bytes "
                         "exceeds the file size limit",
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(bytes)));
  }
  return offset + bytes;
}

/// Map one zeroed extent. A huge extent is carved 2 MiB-aligned out of a
/// double-size reservation so one huge page can back all of it; any other
/// extent opts out of huge pages even where THP is `always`. Both advices
/// are hints: without THP support every extent stays on 4 KiB pages.
Byte* mapExtent(bool huge) {
  const std::uint64_t reserveBytes = huge ? 2 * kExtentBytes : kExtentBytes;
  void* raw = ::mmap(nullptr, reserveBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw IoError(strfmt("MemStorage: cannot map an extent: %s",
                         std::strerror(errno)));
  }
  auto* base = static_cast<Byte*>(raw);
  if (!huge) {
    ::madvise(base, kExtentBytes, MADV_NOHUGEPAGE);
    return base;
  }
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  Byte* extent = base + (roundUp(addr, kExtentBytes) - addr);
  if (extent > base) ::munmap(base, static_cast<size_t>(extent - base));
  Byte* tail = extent + kExtentBytes;
  ::munmap(tail, static_cast<size_t>(base + reserveBytes - tail));
  ::madvise(extent, kExtentBytes, MADV_HUGEPAGE);
  return extent;
}

/// Call fn(piece, pieceBytes) for each extent piece of the mapped range
/// [offset, end), in order.
template <typename Fn>
void forEachPiece(const std::vector<Byte*>& extents, std::uint64_t offset,
                  std::uint64_t end, Fn&& fn) {
  while (offset < end) {
    const std::uint64_t in = offset % kExtentBytes;
    const std::uint64_t n = std::min(end - offset, kExtentBytes - in);
    fn(extents[static_cast<size_t>(offset / kExtentBytes)] + in,
       static_cast<size_t>(n));
    offset += n;
  }
}

}  // namespace

MemStorage::~MemStorage() {
  for (Byte* e : extents_) ::munmap(e, kExtentBytes);
}

void MemStorage::reserve(std::uint64_t end) {
  const std::uint64_t want = roundUp(end, kExtentBytes) / kExtentBytes;
  // Mapping is lazy, so refuse up front what memory could never hold
  // instead of mapping extents until the address space runs out.
  const auto physical =
      static_cast<std::uint64_t>(::sysconf(_SC_PHYS_PAGES)) * pageBytes();
  if (want * kExtentBytes > physical) {
    throw IoError(strfmt("MemStorage: a %llu-byte file exceeds physical "
                         "memory",
                         static_cast<unsigned long long>(end)));
  }
  extents_.reserve(static_cast<size_t>(want));
  // The first extent stays on 4 KiB pages: a small file must not fault a
  // 2 MiB page.
  while (extents_.size() < want) {
    extents_.push_back(mapExtent(!extents_.empty()));
  }
}

void MemStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  if (data.empty()) return;
  const std::uint64_t end = checkedEnd(offset, data.size());
  std::shared_lock<std::shared_mutex> lock(mu_);
  while (end > extents_.size() * kExtentBytes) {
    lock.unlock();
    {
      std::unique_lock<std::shared_mutex> grow(mu_);
      reserve(end);
    }
    lock.lock();
  }
  const Byte* src = data.data();
  forEachPiece(extents_, offset, end, [&](Byte* dst, size_t n) {
    std::memcpy(dst, src, n);
    src += n;
  });
  std::uint64_t cur = size_.load(std::memory_order_relaxed);
  while (cur < end &&
         !size_.compare_exchange_weak(cur, end, std::memory_order_release,
                                      std::memory_order_relaxed)) {
  }
}

std::uint64_t MemStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const std::uint64_t size = size_.load(std::memory_order_acquire);
  if (offset >= size) return 0;
  const std::uint64_t n = std::min<std::uint64_t>(out.size(), size - offset);
  Byte* dst = out.data();
  forEachPiece(extents_, offset, offset + n, [&](const Byte* src, size_t len) {
    std::memcpy(dst, src, len);
    dst += len;
  });
  return n;
}

std::uint64_t MemStorage::size() {
  return size_.load(std::memory_order_acquire);
}

void MemStorage::truncate(std::uint64_t newSize) {
  checkedEnd(newSize, 0);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const std::uint64_t old = size_.load(std::memory_order_relaxed);
  if (newSize > old) {
    reserve(newSize);  // the zero invariant covers [old, newSize)
  } else if (newSize < old) {
    // Restore the zero invariant over [newSize, old): clear the partial
    // page, hand the boundary extent's whole pages back to the kernel
    // (they refault as zeros) and unmap the extents past the end.
    const std::uint64_t keep = roundUp(newSize, kExtentBytes) / kExtentBytes;
    const std::uint64_t pageEnd = roundUp(newSize, pageBytes());
    forEachPiece(extents_, newSize, std::min(pageEnd, old),
                 [](Byte* p, size_t n) { std::memset(p, 0, n); });
    const std::uint64_t dropEnd =
        roundUp(std::min(old, keep * kExtentBytes), pageBytes());
    if (dropEnd > pageEnd) {
      Byte* p = extents_[static_cast<size_t>(keep - 1)] +
                pageEnd % kExtentBytes;
      const auto n = static_cast<size_t>(dropEnd - pageEnd);
      if (::madvise(p, n, MADV_DONTNEED) != 0) std::memset(p, 0, n);
    }
    for (size_t e = static_cast<size_t>(keep); e < extents_.size(); ++e) {
      ::munmap(extents_[e], kExtentBytes);
    }
    extents_.resize(static_cast<size_t>(keep));
  }
  size_.store(newSize, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// PosixStorage
// ---------------------------------------------------------------------------

PosixStorage::PosixStorage(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw IoError("open('" + path + "'): " + std::strerror(errno));
  }
}

PosixStorage::~PosixStorage() {
  if (fd_ >= 0) ::close(fd_);
}

void PosixStorage::writeAt(std::uint64_t offset, std::span<const Byte> data) {
  const Byte* p = data.data();
  std::uint64_t remaining = data.size();
  std::uint64_t off = offset;
  while (remaining > 0) {
    const ssize_t n = ::pwrite(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pwrite('" + path_ + "'): " + std::strerror(errno));
    }
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::uint64_t>(n);
  }
}

std::uint64_t PosixStorage::readAt(std::uint64_t offset, std::span<Byte> out) {
  Byte* p = out.data();
  std::uint64_t remaining = out.size();
  std::uint64_t off = offset;
  std::uint64_t total = 0;
  while (remaining > 0) {
    const ssize_t n = ::pread(fd_, p, remaining, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("pread('" + path_ + "'): " + std::strerror(errno));
    }
    if (n == 0) break;  // end of file
    p += n;
    off += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::uint64_t>(n);
    total += static_cast<std::uint64_t>(n);
  }
  return total;
}

std::uint64_t PosixStorage::size() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw IoError("fstat('" + path_ + "'): " + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void PosixStorage::truncate(std::uint64_t newSize) {
  if (::ftruncate(fd_, static_cast<off_t>(newSize)) != 0) {
    throw IoError("ftruncate('" + path_ + "'): " + std::strerror(errno));
  }
}

void PosixStorage::sync() {
  if (::fsync(fd_) != 0) {
    throw IoError("fsync('" + path_ + "'): " + std::strerror(errno));
  }
}

}  // namespace pcxx::pfs
