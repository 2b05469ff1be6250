// dslint v2 back half: worklist fixpoint dataflow over the CFG (cfg.h).
//
// The abstract domain is the old single-pass engine's, unchanged: every
// tracked d/stream variable carries a SET of protocol states (a bitmask
// over the Figure 2 FSM), and a diagnostic is reported only when an
// operation is invalid in EVERY possible state (must-error), so joins
// never produce false positives. What changed is the control flow: block
// IN states are joined over all predecessors and iterated to a fixpoint,
// so loop bodies see the states carried around the back edge instead of
// only the first iteration.
//
// Reporting runs in three passes over the converged solution:
//   1. every reachable block from its fixpoint IN (sound joined states);
//   2. per loop: the body from the join of the latch OUT states only
//      (the "iteration >= 2" view) — catches bugs that only appear with
//      loop-carried state, e.g. close() inside a loop, which the joined
//      view reports as may-error;
//   3. per loop: the body from the entry-edge states only (the
//      "iteration 1" view) — catches first-iteration bugs the join with
//      the latch masks.
// The diagnostic engine deduplicates (file, line, col, id), so a bug
// visible in several views is reported once.
//
// Helper summaries (summary.h) are applied at Call actions: the callee's
// per-state transfer updates the argument stream and a call that violates
// the protocol in every incoming state is DS108. Escapes end tracking as
// before; --strict surfaces them as DS109 notes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dslint/cfg.h"
#include "dslint/diagnostics.h"

namespace pcxx::dslint {

/// Protocol states, as a bitmask so a variable can be in a SET of states
/// after a control-flow join.
enum : unsigned {
  kOEmpty0 = 1u << 0,  ///< output: open, nothing pending, never wrote
  kOPend0 = 1u << 1,   ///< output: pending inserts, never wrote
  kOEmpty1 = 1u << 2,  ///< output: nothing pending, has written
  kOPend1 = 1u << 3,   ///< output: pending inserts, has written
  kINoRec = 1u << 4,   ///< input: open, no current record
  kIHasRec = 1u << 5,  ///< input: record read, extraction allowed
  kClosed = 1u << 6,   ///< closed (either direction)
};

/// State a freshly opened stream starts in.
unsigned initialState(Dir dir);
/// All states a stream of this direction can ever inhabit (the summary
/// seed universe for helper parameters, whose call context is unknown).
unsigned stateUniverse(Dir dir);

/// Per-parameter protocol effect of one helper function (computed by
/// summary.cpp, applied by the dataflow at Call actions).
struct ParamSummary {
  std::string name;  ///< parameter name inside the helper
  int index = 0;     ///< zero-based argument position
  Dir dir = Dir::Out;
  bool escapes = false;     ///< helper leaks the stream to unknown code
  bool collective = false;  ///< helper performs collectives on the stream
  /// Per initial state bit: the states the stream can be in on return.
  std::map<unsigned, unsigned> out;
  /// Per initial state bit: the diagnostic the helper body definitely
  /// trips when entered in that state, and the line of the violating
  /// statement (no entry when the state is fine). Warnings are not
  /// recorded — only error-severity must-errors.
  struct Violation {
    std::string id, message;
    int line = 0;
  };
  std::map<unsigned, Violation> errors;
};

struct FnSummary {
  std::string name;
  int line = 0;  ///< definition line (for DS108 messages)
  std::vector<ParamSummary> params;
  /// Any stream parameter sees a collective in the body (DS5xx treats a
  /// call to such a helper as a collective operation).
  bool collective = false;
};

using SummaryMap = std::map<std::string, FnSummary>;

struct DataflowOptions {
  bool strict = false;  ///< DS109 notes where tracking is dropped
  const SummaryMap* summaries = nullptr;
};

/// Run the fixpoint and the reporting passes over one CFG. `params` seeds
/// stream variables in the entry state (helper parameters during summary
/// probing; empty for a translation unit). `paramStates` optionally
/// overrides the seeded state per parameter name (defaults to the
/// direction's full universe).
void runDataflow(const Cfg& cfg, const std::vector<PreStream>& params,
                 const std::map<std::string, unsigned>& paramStates,
                 const std::string& file, const DataflowOptions& opts,
                 DiagnosticEngine& diags);

/// Summary probe: run the dataflow over a helper body with `probeParam`
/// seeded to exactly `seedState` (other parameters get their universe) and
/// report nothing; instead collect what happens to the probed stream.
struct ProbeResult {
  unsigned outStates = 0;   ///< states at the (normal) exit
  bool escaped = false;     ///< leaked to unknown code on some path
  std::string errorId;      ///< first definite error on the param, "" none
  std::string errorMsg;
  int errorLine = 0, errorCol = 0;
};
ProbeResult probeHelper(const Cfg& cfg, const std::vector<PreStream>& params,
                        const std::string& probeParam, unsigned seedState,
                        const SummaryMap& summaries);

}  // namespace pcxx::dslint
