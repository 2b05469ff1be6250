// Error types shared by all pcxx modules.
//
// The library reports failures with typed exceptions rooted at pcxx::Error.
// I/O failures (including injected faults from the pfs layer) throw IoError;
// misuse of the d/stream state machine throws StateError; malformed files
// throw FormatError. PCXX_CHECK/PCXX_REQUIRE are used at API boundaries.
#pragma once

#include <stdexcept>
#include <string>

namespace pcxx {

/// Root of the pcxx exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// An operating-system or simulated-device I/O failure.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// A d/stream primitive was invoked in a state where it is not permitted
/// (the paper's Figure 2). Raised only by the protocol table's Throw rows
/// (src/dstream/protocol.h), which dslint reads too.
class StateError : public Error {
 public:
  explicit StateError(const std::string& what)
      : Error("state error: " + what) {}
};

/// The on-disk d/stream file is malformed (bad magic, truncated record,
/// checksum mismatch, or an extract that does not match the insert layout).
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what)
      : Error("format error: " + what) {}
};

/// A constraint on d/stream usage was violated (e.g. interleaved inserts
/// with mismatched sizes, or extracting into a collection of the wrong size).
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what)
      : Error("usage error: " + what) {}
};

/// Internal invariant violation; indicates a library bug, not user error.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what)
      : Error("internal error: " + what) {}
};

namespace detail {
[[noreturn]] void throwInternal(const char* expr, const char* file, int line);
[[noreturn]] void throwUsage(const char* expr, const char* file, int line,
                             const std::string& msg);
}  // namespace detail

}  // namespace pcxx

/// Internal invariant check: throws InternalError when violated.
#define PCXX_CHECK(expr)                                        \
  do {                                                          \
    if (!(expr)) {                                              \
      ::pcxx::detail::throwInternal(#expr, __FILE__, __LINE__); \
    }                                                           \
  } while (0)

/// API precondition check: throws UsageError with a caller-facing message.
#define PCXX_REQUIRE(expr, msg)                                      \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::pcxx::detail::throwUsage(#expr, __FILE__, __LINE__, (msg));  \
    }                                                                \
  } while (0)
