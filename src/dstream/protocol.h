// The d/stream protocol: the paper's Figure 2 state machines as one
// constexpr table. OStream and IStream step through it at every primitive
// and dslint interprets the same rows over sets of states, so the runtime
// and the static checker cannot drift apart. A row maps (state, op) to
//   entry    the state while the op runs, and after it throws;
//   next     the state after it succeeds (after a Throw row, the state
//            dslint continues from, so one mistake is reported once);
//   verdict  Ok; Throw (StateError with the message at runtime, an error
//            in dslint); or Lint (legal at runtime, a no-op or a destructor
//            warning, but dslint reports the id);
//   id       the dslint diagnostic (DS102-DS107), and the message.
// A (state, op) pair without a row is legal and keeps the state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/error.h"

namespace pcxx::ds::protocol {

enum class Dir : std::uint8_t { Out, In };

enum class OutState : std::uint8_t { Ready, Inserting, Closed };
enum class InState : std::uint8_t { Ready, Extracting, Closed };

/// Stream operations; kOps gives each one's member names. Use is any other
/// member call (hasRecord(), layout(), ...), Destroy the destructor.
enum class Op : std::uint8_t {
  Insert, Write, Read, UnsortedRead, Extract, SkipRecord, SeekRecord,
  Rewind, Project, AtEnd, Use, Close, Destroy,
};

struct OpInfo {
  const char* name;  ///< display name in diagnostics
  /// Member names dslint maps onto the op (Insert/Extract are the shift
  /// operators, Use is every other member, Destroy the scope end).
  std::array<std::string_view, 3> methods;
  bool out = false, in = false;  ///< a member of OStream / IStream
  bool collective = false;       ///< every node must call it (paper §4.2)
  constexpr bool on(Dir d) const { return d == Dir::Out ? out : in; }
};

inline constexpr auto kOps = std::to_array<OpInfo>({
    {"<<", {}, true, false, false},
    {"write()", {"write"}, true, false, true},
    // readRecord/readRecords are seek-plus-read compounds: they land the
    // stream on a fresh record exactly like read().
    {"read()", {"read", "readRecord", "readRecords"}, false, true, true},
    {"unsortedRead()", {"unsortedRead"}, false, true, true},
    {">>", {}, false, true, false},
    {"skipRecord()", {"skipRecord"}, false, true, true},
    {"seekRecord()", {"seekRecord"}, false, true, true},
    {"rewind()", {"rewind"}, false, true, true},
    {"project()", {"project"}, false, true, false},
    {"atEnd()", {"atEnd"}, false, true, false},
    {"use", {}, true, true, false},
    {"close()", {"close"}, true, true, true},
    {"destructor", {}, true, true, false},
});
static_assert(kOps.size() == static_cast<std::size_t>(Op::Destroy) + 1);

constexpr const OpInfo& info(Op op) {
  return kOps[static_cast<std::size_t>(op)];
}

/// The op a member call `s.method(...)` performs.
constexpr Op opForMethod(std::string_view method) {
  for (std::size_t i = 0; i < kOps.size(); ++i) {
    for (std::string_view m : kOps[i].methods) {
      if (!m.empty() && m == method) return static_cast<Op>(i);
    }
  }
  return Op::Use;
}

enum class Verdict : std::uint8_t { Ok, Throw, Lint };

template <typename S>
struct Row {
  S from;
  Op op;
  S entry;
  S next;
  Verdict verdict = Verdict::Ok;
  const char* id = nullptr;
  const char* message = nullptr;
  bool warning = false;  ///< dslint reports the id as a warning
};

// clang-format off
inline constexpr auto kOutRows = [] {
  using enum OutState;
  using enum Op;
  using enum Verdict;
  return std::to_array<Row<OutState>>({
      // from     op       entry      next
      {Ready,     Insert,  Ready,     Inserting},
      {Closed,    Insert,  Closed,    Closed, Throw, "DS105",
       "insert on a closed d/stream"},
      {Ready,     Write,   Ready,     Ready,  Throw, "DS102",
       "write() requires at least one insert (Figure 2)"},
      {Inserting, Write,   Inserting, Ready},
      {Closed,    Write,   Closed,    Closed, Throw, "DS105",
       "write on a closed d/stream"},
      {Ready,     Close,   Closed,    Closed},
      {Inserting, Close,   Inserting, Closed, Throw, "DS106",
       "close(): stream has pending inserts; call write() first"},
      // Lint: a second close() is a no-op at runtime.
      {Closed,    Close,   Closed,    Closed, Lint,  "DS104", "double close"},
      // Lint: queries of a closed stream (layout(), ...) still answer.
      {Closed,    Use,     Closed,    Closed, Lint, "DS105", "use after close"},
      // Lint: the destructor only warns; it must not throw.
      {Inserting, Destroy, Closed,    Closed, Lint,  "DS106",
       "destroyed with pending inserts that were never written"},
  });
}();

inline constexpr auto kInRows = [] {
  using enum InState;
  using enum Op;
  using enum Verdict;
  return std::to_array<Row<InState>>({
      // from      op            entry   next
      {Ready,      Read,         Ready,  Extracting},
      // Figure 2's read -> read: the unextracted record is dropped on
      // entry, so a read that throws leaves nothing to extract.
      {Extracting, Read,         Ready,  Extracting},
      {Closed,     Read,         Closed, Closed, Throw, "DS105",
       "read on a closed d/stream"},
      {Ready,      UnsortedRead, Ready,  Extracting},
      {Extracting, UnsortedRead, Ready,  Extracting},
      {Closed,     UnsortedRead, Closed, Closed, Throw, "DS105",
       "unsortedRead on a closed d/stream"},
      {Ready,      Extract,      Ready,  Extracting, Throw, "DS103",
       "extract requires a preceding read() or unsortedRead() (Figure 2)"},
      {Closed,     Extract,      Closed, Closed, Throw, "DS105",
       "extract on a closed d/stream"},
      // Repositioning drops the current record, like a read.
      {Extracting, SkipRecord,   Ready,  Ready},
      {Closed,     SkipRecord,   Closed, Closed, Throw, "DS105",
       "skipRecord on a closed d/stream"},
      {Extracting, SeekRecord,   Ready,  Ready},
      {Closed,     SeekRecord,   Closed, Closed, Throw, "DS105",
       "seekRecord on a closed d/stream"},
      {Extracting, Rewind,       Ready,  Ready},
      {Closed,     Rewind,       Closed, Closed, Throw, "DS105",
       "rewind on a closed d/stream"},
      {Closed,     Project,      Closed, Closed, Throw, "DS105",
       "project on a closed d/stream"},
      {Closed,     AtEnd,        Closed, Closed},  // at its end: true
      // Lint: queries of a closed stream (hasRecord(), ...) still answer.
      {Closed,     Use,          Closed, Closed, Lint,
       "DS105", "use after close"},
      {Ready,      Close,        Closed, Closed},
      {Extracting, Close,        Closed, Closed},
      // Lint: a second close() is a no-op at runtime.
      {Closed,     Close,        Closed, Closed, Lint, "DS104", "double close"},
  });
}();

/// Lint refinement of (Ready, close) and (Ready, destructor) for an output
/// stream that never wrote a record: dslint's has-written bit, which the
/// runtime does not keep.
inline constexpr Row<OutState> kUnwrittenClose = {
    OutState::Ready, Op::Close, OutState::Closed, OutState::Closed,
    Verdict::Lint, "DS107", "never writes a record", /*warning=*/true};
// clang-format on

constexpr const auto& rowsOf(OutState) { return kOutRows; }
constexpr const auto& rowsOf(InState) { return kInRows; }

/// The row for (s, op); a pair without one is legal and keeps the state.
template <typename S>
constexpr Row<S> row(S s, Op op) {
  for (const Row<S>& r : rowsOf(s)) {
    if (r.from == s && r.op == op) return r;
  }
  return Row<S>{s, op, s, s};
}

/// Start `op` in state `s`: throws the row's StateError on a Throw row,
/// otherwise returns the state the op runs in.
template <typename S>
S enter(S s, Op op) {
  const Row<S> r = row(s, op);
  if (r.verdict == Verdict::Throw) throw StateError(r.message);
  return r.entry;
}

/// The state after `op` succeeded from `s`.
template <typename S>
constexpr S next(S s, Op op) {
  return row(s, op).next;
}

}  // namespace pcxx::ds::protocol
