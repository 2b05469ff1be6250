#include "dslint/dataflow.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <set>

namespace pcxx::dslint {

unsigned initialState(Dir dir) {
  return dir == Dir::Out ? kOEmpty0 : kINoRec;
}

unsigned stateUniverse(Dir dir) {
  if (dir == Dir::Out) {
    return kOEmpty0 | kOPend0 | kOEmpty1 | kOPend1 | kClosed;
  }
  return kINoRec | kIHasRec | kClosed;
}

namespace {

// -- abstract domain ----------------------------------------------------------

struct CollVar {
  std::string distVar, alignVar;
  bool layoutKnown = false;
  bool operator==(const CollVar& o) const {
    return distVar == o.distVar && alignVar == o.alignVar &&
           layoutKnown == o.layoutKnown;
  }
};

struct StreamVar {
  Dir dir = Dir::Out;
  int declLine = 0;
  unsigned states = 0;
  bool escaped = false;
  bool layoutKnown = false;
  /// Input stream opened with StreamOptions::salvage: read() may consume
  /// damage to end-of-file and yield no record, so extraction legality is
  /// a runtime hasRecord() question the FSM must not second-guess.
  bool salvage = false;
  /// Helper parameter: the caller owns the stream, so destructor checks
  /// (scope end, early exit) do not apply.
  bool fromParam = false;
  std::string distVar, alignVar;
  /// Collections inserted since the last write: layout key -> first line.
  std::map<std::string, int> pendingKeys;
  bool operator==(const StreamVar& o) const {
    return dir == o.dir && declLine == o.declLine && states == o.states &&
           escaped == o.escaped && layoutKnown == o.layoutKnown &&
           salvage == o.salvage && fromParam == o.fromParam &&
           distVar == o.distVar && alignVar == o.alignVar &&
           pendingKeys == o.pendingKeys;
  }
};

struct Env {
  std::map<std::string, StreamVar> streams;
  std::map<std::string, CollVar> colls;
  bool operator==(const Env& o) const {
    return streams == o.streams && colls == o.colls;
  }
};

void joinInto(Env& a, const Env& b) {
  for (const auto& [name, sv] : b.streams) {
    auto it = a.streams.find(name);
    if (it == a.streams.end()) {
      a.streams.emplace(name, sv);
      continue;
    }
    StreamVar& av = it->second;
    av.states |= sv.states;
    av.escaped = av.escaped || sv.escaped;
    av.salvage = av.salvage || sv.salvage;
    for (const auto& [key, line] : sv.pendingKeys) {
      av.pendingKeys.emplace(key, line);
    }
  }
  for (const auto& [name, cv] : b.colls) a.colls.emplace(name, cv);
}

// -- the protocol FSM ---------------------------------------------------------

namespace proto = ds::protocol;

/// One state's reaction to an op, read off the protocol table.
struct Outcome {
  const char* id = nullptr;  ///< diagnostic ID, nullptr when legal
  Severity sev = Severity::Error;
  const char* message = nullptr;
  int line = 0;  ///< helper summaries: the violating line inside the body
  unsigned next = 0;
};

template <typename S>
Outcome outcomeOf(const proto::Row<S>& r, unsigned next) {
  if (r.verdict == proto::Verdict::Ok) return {.next = next};
  return {r.id, r.warning ? Severity::Warning : Severity::Error, r.message, 0,
          next};
}

/// The bits are the table's states: input ones are 1 << (4 + InState);
/// open output ones are 1 << (OutState + 2 * has-written), the bit the
/// runtime does not keep; kClosed is Closed in both directions.
static_assert(kOPend1 == 1u << 3 && kINoRec == 1u << 4 && kClosed == 1u << 6);
Outcome outcome(Dir dir, unsigned bit, Op op) {
  const int i = std::countr_zero(bit);
  if (dir == Dir::In) {
    const auto r = proto::row(static_cast<proto::InState>(i - 4), op);
    return outcomeOf(r, 1u << (4 + static_cast<int>(r.next)));
  }
  using S = proto::OutState;
  const S s = bit == kClosed ? S::Closed : static_cast<S>(i % 2);
  const bool wrote = (bit & (kOEmpty1 | kOPend1)) != 0 || op == Op::Write;
  const auto r =
      bit == kOEmpty0 && (op == Op::Close || op == Op::Destroy)
          ? proto::kUnwrittenClose
          : proto::row(s, op);
  return outcomeOf(r, r.next == S::Closed
                          ? kClosed
                          : 1u << (static_cast<int>(r.next) + 2 * wrote));
}

/// Must-error over a state set, `each` giving one state's outcome: the
/// union of the next states, and the diagnostic (with the first state's
/// message and line) only when every state gives the same one.
template <typename Each>
Outcome mustError(unsigned states, Each&& each) {
  Outcome common;
  unsigned next = 0;
  for (unsigned bit = 1; bit <= kClosed; bit <<= 1) {
    if (!(states & bit)) continue;
    const Outcome o = each(bit);
    next |= o.next;
    if ((states & (bit - 1)) == 0) {
      common = o;  // the lowest state in the set
    } else if (o.id == nullptr || common.id == nullptr ||
               std::string(o.id) != common.id) {
      common.id = nullptr;
    }
  }
  common.next = next;
  return common;
}

Outcome mustError(Dir dir, unsigned states, Op op) {
  return mustError(states,
                   [&](unsigned bit) { return outcome(dir, bit, op); });
}

std::string layoutKey(const std::string& dist, const std::string& align) {
  return align.empty() ? dist : dist + ", " + align;
}

// -- transfer -----------------------------------------------------------------

/// Reporting callback. The dataflow runs transfer functions both silently
/// (fixpoint iteration) and with a sink (reporting walks); the sink also
/// carries the acting stream's name so the summary probe can attribute
/// diagnostics to the helper parameter under study.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void report(const std::string& id, Severity sev, int line, int col,
                      const std::string& msg, const std::string& stream) = 0;
};

class Transfer {
 public:
  Transfer(const DataflowOptions& opts) : opts_(opts) {}

  void apply(Env& env, const Action& a, Sink* sink) const {
    switch (a.kind) {
      case Action::Kind::StreamDecl: {
        StreamVar sv;
        sv.dir = a.dir;
        sv.declLine = a.line;
        sv.states = initialState(a.dir);
        sv.layoutKnown = a.layoutKnown;
        sv.salvage = a.salvage;
        sv.distVar = a.distVar;
        sv.alignVar = a.alignVar;
        env.streams[a.name] = sv;  // shadowing redeclaration replaces
        return;
      }
      case Action::Kind::CollDecl: {
        CollVar cv;
        cv.layoutKnown = a.layoutKnown;
        cv.distVar = a.distVar;
        cv.alignVar = a.alignVar;
        env.colls[a.name] = cv;
        return;
      }
      case Action::Kind::Event:
        applyEvent(env, a, sink);
        return;
      case Action::Kind::Call:
        applyCall(env, a, sink);
        return;
      case Action::Kind::Escape: {
        auto it = env.streams.find(a.name);
        if (it == env.streams.end()) return;
        StreamVar& v = it->second;
        if (v.escaped || v.states == 0) return;
        if (opts_.strict && sink != nullptr) {
          sink->report("DS109", Severity::Note, a.line, a.col,
                       "d/stream '" + a.name +
                           "' escapes to unanalyzed code; protocol tracking "
                           "stops here",
                       a.name);
        }
        v.escaped = true;
        return;
      }
      case Action::Kind::ScopeEnd: {
        auto it = env.streams.find(a.name);
        if (it == env.streams.end()) return;
        const StreamVar v = it->second;
        env.streams.erase(it);
        if (v.escaped || v.states == 0 || v.fromParam) return;
        report(mustError(v.dir, v.states, Op::Destroy), a, a.name, v, sink);
        return;
      }
      case Action::Kind::EarlyExit: {
        for (auto& [name, v] : env.streams) {
          if (v.escaped || v.states == 0 || v.fromParam) continue;
          // Only the definite data-loss check fires on early exits (a
          // return before write is usually an error path, not a bug).
          const Outcome o = mustError(v.dir, v.states, Op::Destroy);
          if (o.sev == Severity::Error) report(o, a, name, v, sink);
          v.escaped = true;  // do not re-report at the enclosing scope end
        }
        return;
      }
    }
  }

 private:
  void applyEvent(Env& env, const Action& a, Sink* sink) const {
    auto it = env.streams.find(a.name);
    if (it == env.streams.end()) return;
    StreamVar& v = it->second;
    if (v.escaped || v.states == 0) return;

    // Direction errors are definite regardless of protocol state (D1:
    // mixing write-mode and read-mode calls).
    if (!ds::protocol::info(a.event).on(v.dir)) {
      const char* msg = v.dir == Dir::Out
                            ? "read-mode operation on an output stream"
                            : "write-mode operation on an input stream";
      report({.id = "DS101", .message = msg}, a, a.name, v, sink);
      return;
    }

    // Must-error reporting: diagnose only if the event misbehaves in
    // EVERY possible state.
    const Outcome o = mustError(v.dir, v.states, a.event);
    report(o, a, a.name, v, sink);
    v.states = o.next;
    // Salvage-mode read() may land at end-of-file with no record; keep the
    // no-record state live so later extractions (guarded by hasRecord() at
    // runtime) are not flagged as definite DS103 errors.
    if (v.salvage &&
        (a.event == Op::Read || a.event == Op::UnsortedRead)) {
      v.states |= kINoRec;
    }

    // D4 bookkeeping.
    if (a.event == Op::Write) v.pendingKeys.clear();
    const CollVar* cv = nullptr;
    if (!a.operand.empty()) {
      auto cIt = env.colls.find(a.operand);
      if (cIt != env.colls.end()) cv = &cIt->second;
    }
    if ((a.event == Op::Insert || a.event == Op::Extract) &&
        cv != nullptr && cv->layoutKnown) {
      const std::string cKey = layoutKey(cv->distVar, cv->alignVar);
      if (v.layoutKnown) {
        const std::string sKey = layoutKey(v.distVar, v.alignVar);
        if (sKey != cKey && sink != nullptr) {
          sink->report("DS402", Severity::Error, a.line, a.col,
                       "collection '" + a.operand + "' is laid out over (" +
                           cKey + ") but d/stream '" + a.name +
                           "' was declared over (" + sKey +
                           "); layouts must match",
                       a.name);
        }
      }
      if (a.event == Op::Insert) {
        for (const auto& [key, line] : v.pendingKeys) {
          if (key != cKey) {
            if (sink != nullptr) {
              sink->report(
                  "DS401", Severity::Error, a.line, a.col,
                  "collection '" + a.operand + "' over (" + cKey +
                      ") interleaved with an insert over (" + key +
                      ") from line " + std::to_string(line) +
                      "; interleaved inserts require aligned collections",
                  a.name);
            }
            break;
          }
        }
        v.pendingKeys.emplace(cKey, a.line);
      }
    }
  }

  void applyCall(Env& env, const Action& a, Sink* sink) const {
    const FnSummary* fn = nullptr;
    if (opts_.summaries != nullptr) {
      auto it = opts_.summaries->find(a.callee);
      if (it != opts_.summaries->end()) fn = &it->second;
    }
    for (const auto& [argName, idx] : a.callArgs) {
      auto it = env.streams.find(argName);
      if (it == env.streams.end()) continue;
      StreamVar& v = it->second;
      if (v.escaped || v.states == 0) continue;
      const ParamSummary* ps = nullptr;
      if (fn != nullptr) {
        for (const ParamSummary& p : fn->params) {
          if (p.index == idx) ps = &p;
        }
      }
      if (ps == nullptr) {
        // No summary for this argument position: back to the conservative
        // escape.
        if (opts_.strict && sink != nullptr) {
          sink->report("DS109", Severity::Note, a.line, a.col,
                       "d/stream '" + argName +
                           "' escapes into '" + a.callee +
                           "' at an unanalyzed parameter position; protocol "
                           "tracking stops here",
                       argName);
        }
        v.escaped = true;
        continue;
      }
      if (ps->dir != v.dir) {
        if (sink != nullptr) {
          sink->report("DS108", Severity::Error, a.line, a.col,
                       "call to '" + a.callee + "' passes " +
                           (v.dir == Dir::Out ? "output" : "input") +
                           " d/stream '" + argName + "' to parameter '" +
                           ps->name + "', which the helper (line " +
                           std::to_string(fn->line) + ") uses as an " +
                           (ps->dir == Dir::Out ? "output" : "input") +
                           " stream",
                       argName);
        }
        v.escaped = true;
        continue;
      }
      // Must-error across every state reaching the call: the helper body
      // definitely violates the protocol for this call context.
      const Outcome o = mustError(v.states, [&](unsigned bit) {
        Outcome each{.line = fn->line, .next = bit};
        if (auto eIt = ps->errors.find(bit); eIt != ps->errors.end()) {
          each.id = eIt->second.id.c_str();
          each.message = eIt->second.message.c_str();
          each.line = eIt->second.line;
        }
        if (auto oIt = ps->out.find(bit); oIt != ps->out.end()) {
          each.next = oIt->second;
        }
        return each;
      });
      if (o.id != nullptr && sink != nullptr) {
        sink->report("DS108", Severity::Error, a.line, a.col,
                     "call to '" + a.callee +
                         "' violates the d/stream protocol on '" + argName +
                         "' in every state reaching this call: " + o.message +
                         " (" + o.id + " inside the helper, line " +
                         std::to_string(o.line) + ")",
                     argName);
      }
      if (o.next != 0) v.states = o.next;
      if (ps->escapes) {
        if (opts_.strict && sink != nullptr) {
          sink->report("DS109", Severity::Note, a.line, a.col,
                       "d/stream '" + argName + "' escapes inside '" +
                           a.callee +
                           "'; protocol tracking stops after this call",
                       argName);
        }
        v.escaped = true;
      }
      // The helper may have written; stale interleave keys would be
      // spurious.
      v.pendingKeys.clear();
    }
  }

  /// Report a must-error outcome on stream `name` at action `a`.
  static void report(const Outcome& o, const Action& a,
                     const std::string& name, const StreamVar& v,
                     Sink* sink) {
    if (o.id == nullptr || sink == nullptr) return;
    sink->report(o.id, o.sev, a.line, a.col,
                 "d/stream '" + name + "' (declared line " +
                     std::to_string(v.declLine) + "): " + o.message,
                 name);
  }

  const DataflowOptions& opts_;
};

// -- the engine ---------------------------------------------------------------

class Engine {
 public:
  Engine(const Cfg& cfg, const std::vector<PreStream>& params,
         const std::map<std::string, unsigned>& paramStates,
         const DataflowOptions& opts)
      : cfg_(cfg), transfer_(opts) {
    for (const PreStream& p : params) {
      StreamVar sv;
      sv.dir = p.dir;
      sv.declLine = p.declLine;
      sv.fromParam = true;
      sv.states = stateUniverse(p.dir);
      if (auto it = paramStates.find(p.name); it != paramStates.end()) {
        sv.states = it->second;
      }
      seed_.streams[p.name] = sv;
    }
  }

  /// Worklist fixpoint: IN[b] = join over pred OUTs; the lattice is finite
  /// (state bitmask + monotone flags + bounded key sets), so this
  /// terminates; a generous step budget backstops it regardless.
  void solve() {
    const size_t n = cfg_.blocks.size();
    in_.clear();
    in_.resize(n);
    out_.clear();
    out_.resize(n);
    std::deque<int> wl;
    std::vector<char> queued(n, 0);
    wl.push_back(cfg_.entry);
    queued[static_cast<size_t>(cfg_.entry)] = 1;
    size_t budget = (n + 1) * 512;
    while (!wl.empty() && budget-- > 0) {
      const int b = wl.front();
      wl.pop_front();
      queued[static_cast<size_t>(b)] = 0;
      std::unique_ptr<Env> newIn = computeIn(b);
      if (newIn == nullptr) continue;
      if (out_[static_cast<size_t>(b)] != nullptr &&
          in_[static_cast<size_t>(b)] != nullptr &&
          *in_[static_cast<size_t>(b)] == *newIn) {
        continue;
      }
      Env e = *newIn;
      in_[static_cast<size_t>(b)] = std::move(newIn);
      for (const Action& a : cfg_.blocks[static_cast<size_t>(b)].actions) {
        transfer_.apply(e, a, nullptr);
      }
      if (out_[static_cast<size_t>(b)] == nullptr ||
          !(*out_[static_cast<size_t>(b)] == e)) {
        out_[static_cast<size_t>(b)] = std::make_unique<Env>(std::move(e));
        for (int s : cfg_.blocks[static_cast<size_t>(b)].succs) {
          if (!queued[static_cast<size_t>(s)]) {
            queued[static_cast<size_t>(s)] = 1;
            wl.push_back(s);
          }
        }
      }
    }
  }

  /// The three reporting walks (see dataflow.h).
  void reportAll(Sink& sink) {
    for (size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (in_[b] == nullptr) continue;
      Env e = *in_[b];
      for (const Action& a : cfg_.blocks[b].actions) {
        transfer_.apply(e, a, &sink);
      }
    }
    for (size_t h = 0; h < cfg_.blocks.size(); ++h) {
      const BasicBlock& head = cfg_.blocks[h];
      if (head.backedgePreds.empty() || in_[h] == nullptr) continue;
      const std::set<int> region = loopRegion(static_cast<int>(h));
      // Iteration >= 2 view: only the states carried around a back edge.
      std::unique_ptr<Env> carried;
      for (int latch : head.backedgePreds) {
        accumulate(carried, out_[static_cast<size_t>(latch)].get());
      }
      if (carried != nullptr) {
        regionalReport(static_cast<int>(h), region, *carried, sink);
      }
      // Iteration 1 view: only the states on the entry edges.
      std::unique_ptr<Env> first;
      for (int p : head.preds) {
        const auto& be = head.backedgePreds;
        if (std::find(be.begin(), be.end(), p) != be.end()) continue;
        accumulate(first, out_[static_cast<size_t>(p)].get());
      }
      if (first != nullptr) {
        regionalReport(static_cast<int>(h), region, *first, sink);
      }
    }
  }

  /// Union of the streams' states over all terminal blocks (function exit
  /// plus return blocks) — the summary probe's "what can the caller see".
  void exitView(const std::string& name, unsigned& states,
                bool& escaped) const {
    states = 0;
    escaped = false;
    bool any = false;
    for (size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (out_[b] == nullptr || !cfg_.blocks[b].succs.empty()) continue;
      auto it = out_[b]->streams.find(name);
      if (it == out_[b]->streams.end()) continue;
      states |= it->second.states;
      escaped = escaped || it->second.escaped;
      any = true;
    }
    if (!any) {
      // Never reached an exit with the stream live (e.g. an infinite
      // loop); fall back to the union over every block.
      for (size_t b = 0; b < cfg_.blocks.size(); ++b) {
        if (out_[b] == nullptr) continue;
        auto it = out_[b]->streams.find(name);
        if (it == out_[b]->streams.end()) continue;
        states |= it->second.states;
        escaped = escaped || it->second.escaped;
      }
    }
  }

 private:
  std::unique_ptr<Env> computeIn(int b) const {
    std::unique_ptr<Env> je;
    if (b == cfg_.entry) {
      je = std::make_unique<Env>(seed_);
    }
    for (int p : cfg_.blocks[static_cast<size_t>(b)].preds) {
      accumulate(je, out_[static_cast<size_t>(p)].get());
    }
    return je;
  }

  static void accumulate(std::unique_ptr<Env>& into, const Env* from) {
    if (from == nullptr) return;
    if (into == nullptr) {
      into = std::make_unique<Env>(*from);
    } else {
      joinInto(*into, *from);
    }
  }

  /// Natural loop region of head `h`: h plus everything reverse-reachable
  /// from its latches without passing through h.
  std::set<int> loopRegion(int h) const {
    std::set<int> region{h};
    std::vector<int> stack(cfg_.blocks[static_cast<size_t>(h)].backedgePreds);
    while (!stack.empty()) {
      const int b = stack.back();
      stack.pop_back();
      if (region.count(b)) continue;
      region.insert(b);
      for (int p : cfg_.blocks[static_cast<size_t>(b)].preds) {
        stack.push_back(p);
      }
    }
    return region;
  }

  /// Propagate `seed` from the loop head through the region (head IN held
  /// fixed — the seed is already a post-fixpoint of the back edges) and
  /// report must-errors under those states. Deduplication in the
  /// diagnostic engine merges overlap with the main walk.
  void regionalReport(int h, const std::set<int>& region, const Env& seed,
                      Sink& sink) {
    std::map<int, std::unique_ptr<Env>> rin, rout;
    rin[h] = std::make_unique<Env>(seed);
    std::deque<int> wl{h};
    std::set<int> queued{h};
    size_t budget = (region.size() + 1) * 512;
    while (!wl.empty() && budget-- > 0) {
      const int b = wl.front();
      wl.pop_front();
      queued.erase(b);
      std::unique_ptr<Env> newIn;
      if (b == h) {
        newIn = std::make_unique<Env>(seed);
      } else {
        for (int p : cfg_.blocks[static_cast<size_t>(b)].preds) {
          if (!region.count(p)) continue;
          auto it = rout.find(p);
          if (it != rout.end()) accumulate(newIn, it->second.get());
        }
      }
      if (newIn == nullptr) continue;
      auto rIt = rin.find(b);
      if (rout.count(b) && rIt != rin.end() && *rIt->second == *newIn) {
        continue;
      }
      Env e = *newIn;
      rin[b] = std::move(newIn);
      for (const Action& a : cfg_.blocks[static_cast<size_t>(b)].actions) {
        transfer_.apply(e, a, nullptr);
      }
      auto oIt = rout.find(b);
      if (oIt == rout.end() || !(*oIt->second == e)) {
        rout[b] = std::make_unique<Env>(std::move(e));
        for (int s : cfg_.blocks[static_cast<size_t>(b)].succs) {
          if (s != h && region.count(s) && !queued.count(s)) {
            queued.insert(s);
            wl.push_back(s);
          }
        }
      }
    }
    for (int b : region) {
      auto it = rin.find(b);
      if (it == rin.end()) continue;
      Env e = *it->second;
      for (const Action& a : cfg_.blocks[static_cast<size_t>(b)].actions) {
        transfer_.apply(e, a, &sink);
      }
    }
  }

  const Cfg& cfg_;
  Transfer transfer_;
  Env seed_;
  std::vector<std::unique_ptr<Env>> in_, out_;
};

class DiagSink : public Sink {
 public:
  DiagSink(const std::string& file, DiagnosticEngine& diags)
      : file_(file), diags_(diags) {}
  void report(const std::string& id, Severity sev, int line, int col,
              const std::string& msg, const std::string& stream) override {
    (void)stream;
    diags_.add(id, sev, file_, line, col, msg);
  }

 private:
  const std::string file_;
  DiagnosticEngine& diags_;
};

/// Collects the first error-severity diagnostic attributed to one stream
/// (the probed helper parameter).
class ProbeSink : public Sink {
 public:
  explicit ProbeSink(std::string stream) : stream_(std::move(stream)) {}
  void report(const std::string& id, Severity sev, int line, int col,
              const std::string& msg, const std::string& stream) override {
    if (stream != stream_ || sev != Severity::Error) return;
    if (!result.errorId.empty() &&
        (result.errorLine < line ||
         (result.errorLine == line && result.errorCol <= col))) {
      return;
    }
    result.errorId = id;
    result.errorMsg = msg;
    result.errorLine = line;
    result.errorCol = col;
  }
  ProbeResult result;

 private:
  const std::string stream_;
};

}  // namespace

void runDataflow(const Cfg& cfg, const std::vector<PreStream>& params,
                 const std::map<std::string, unsigned>& paramStates,
                 const std::string& file, const DataflowOptions& opts,
                 DiagnosticEngine& diags) {
  Engine engine(cfg, params, paramStates, opts);
  engine.solve();
  DiagSink sink(file, diags);
  engine.reportAll(sink);
}

ProbeResult probeHelper(const Cfg& cfg, const std::vector<PreStream>& params,
                        const std::string& probeParam, unsigned seedState,
                        const SummaryMap& summaries) {
  DataflowOptions opts;
  opts.summaries = &summaries;
  std::map<std::string, unsigned> paramStates;
  paramStates[probeParam] = seedState;
  Engine engine(cfg, params, paramStates, opts);
  engine.solve();
  ProbeSink sink(probeParam);
  engine.reportAll(sink);
  engine.exitView(probeParam, sink.result.outStates, sink.result.escaped);
  return sink.result;
}

}  // namespace pcxx::dslint
