// dslint v2 front half: token stream -> statement tree -> control-flow
// graph.
//
// The statement tree is a faithful, scope-aware parse of the constructs
// the protocol analysis cares about: stream/collection declarations,
// stream operations (classified into events), helper calls that receive a
// stream argument, escapes to unknown code, and structured control flow
// (if/else, for/while/do, switch, try/catch, return/break/continue,
// lambda bodies inline). Conditions are parsed as statement lists of
// their own (a condition can contain stream events, e.g.
// `while (!in.atEnd())`) and are tagged when they depend on node
// identity (`node.id()`, `machine.nodeId()`, `rank`, `thisNode`, ...),
// which feeds the DS5xx collective-divergence checks.
//
// The CFG flattens the tree into basic blocks of actions with explicit
// edges: loop back edges are marked so the dataflow engine (dataflow.h)
// can iterate bodies to a fixpoint and run the loop-carried
// "second iteration" analysis.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dstream/protocol.h"
#include "streamgen/token.h"

namespace pcxx::dslint {

// Stream directions and the operations the protocol FSM interprets come
// from the d/stream protocol table (the paper's Figure 2).
using Dir = ds::protocol::Dir;
using Op = ds::protocol::Op;

/// One primitive the dataflow engine interprets.
struct Action {
  enum class Kind {
    StreamDecl,  // ds::OStream name(args) — also the "open" collective
    CollDecl,    // coll::Collection<T> name(args)
    Event,       // an Op applied to stream `name`
    Call,        // call of a known helper passing streams as arguments
    Escape,      // stream `name` leaks to unanalyzed code
    ScopeEnd,    // destructor for `name` at the end of its scope
    EarlyExit,   // return/throw: destructor semantics for all live streams
  };
  Kind kind = Kind::Event;
  std::string name;  ///< stream or collection variable
  Op event = Op::Use;
  // StreamDecl / CollDecl payload.
  Dir dir = Dir::Out;
  bool layoutKnown = false;
  bool salvage = false;
  std::string distVar, alignVar;
  // Event payload: collection operand of an Insert/Extract, "" if none.
  std::string operand;
  // Call payload: callee name plus (stream variable, argument index).
  std::string callee;
  std::vector<std::pair<std::string, int>> callArgs;
  int line = 0, col = 0;
};

/// Statement tree node.
struct Stmt {
  enum class Kind {
    Seq,      // { ... } or a virtual scope around a controlled statement
    Actions,  // a run of primitive actions
    If,       // children: [then, else?]
    Loop,     // for/while; children: [body]
    DoLoop,   // do/while;  children: [body]
    Switch,   // children: [body]; break exits, no back edge
    Try,      // children: [body, handler...]
    Return,   // also throw; actions may carry an EarlyExit
    Break,
    Continue,
  };
  Kind kind = Kind::Actions;
  int line = 0, col = 0;
  /// If/Loop/DoLoop/Switch: condition mentions node identity.
  bool nodeDependent = false;
  std::vector<Action> actions;                  // Kind::Actions / Return
  std::vector<std::unique_ptr<Stmt>> cond;      // condition-region stmts
  std::vector<std::unique_ptr<Stmt>> children;  // structure, see Kind
};

/// A stream name pre-registered in the root scope (helper parameters).
struct PreStream {
  std::string name;
  Dir dir = Dir::Out;
  int declLine = 0;  ///< parameter's source line, for diagnostics
};

/// Parse tokens [beginTok, endTok) into a statement tree. `helpers` names
/// functions with protocol summaries so their call sites become
/// Action::Kind::Call instead of escapes; `params` pre-registers stream
/// variables (no StreamDecl action, no ScopeEnd at the root).
std::unique_ptr<Stmt> parseStatements(const sg::TokenStream& ts,
                                      const std::set<std::string>& helpers,
                                      const std::vector<PreStream>& params,
                                      size_t beginTok, size_t endTok);

/// Whole translation unit.
std::unique_ptr<Stmt> parseUnit(const sg::TokenStream& ts,
                                const std::set<std::string>& helpers);

// -- control-flow graph -------------------------------------------------------

struct BasicBlock {
  std::vector<Action> actions;
  std::vector<int> succs;
  std::vector<int> preds;
  /// Subset of preds whose edge is a loop back edge (latch -> this head).
  std::vector<int> backedgePreds;
};

struct Cfg {
  std::vector<BasicBlock> blocks;
  int entry = 0;
  int exit = 0;
};

Cfg buildCfg(const Stmt& root);

}  // namespace pcxx::dslint
