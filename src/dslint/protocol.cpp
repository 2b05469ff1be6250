#include "dslint/protocol.h"

#include <set>
#include <vector>

#include "dslint/cfg.h"
#include "dslint/dataflow.h"
#include "dslint/summary.h"

namespace pcxx::dslint {
namespace {

// -- DS5xx: collective divergence ---------------------------------------------
//
// Paper §4.2: d/stream operations are collective — every node must
// execute open/read/write/close in the same order or the runtime
// deadlocks waiting for the missing participants. The dataflow's
// statement tree keeps conditions tagged with node-identity dependence
// (`node.id()`, `thisNode`, `myRank`, ...), so divergence is a structural
// property: a collective whose execution (or execution count, or order)
// depends on which node is evaluating the condition.

struct CollEvent {
  std::string desc;  ///< comparison key and message fragment
  int line = 0, col = 0;
};

bool sameSeq(const std::vector<CollEvent>& a, const std::vector<CollEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].desc != b[i].desc) return false;
  }
  return true;
}

std::string listSeq(const std::vector<CollEvent>& seq) {
  std::string out;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i) out += ", ";
    out += seq[i].desc;
  }
  return out;
}

/// True when every path through the statement leaves the enclosing
/// region (return/throw/break/continue at the statement level).
bool definitelyExits(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::Return:
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return true;
    case Stmt::Kind::Seq:
      for (const auto& c : s.children) {
        if (definitelyExits(*c)) return true;
      }
      return false;
    default:
      return false;
  }
}

/// One arm of a node-dependent branch exits (returns/breaks) while the
/// other falls through: everything after the branch runs on a
/// node-dependent subset of nodes.
bool exitAsymmetric(const Stmt& ifStmt) {
  const bool thenExits =
      !ifStmt.children.empty() && definitelyExits(*ifStmt.children[0]);
  const bool elseExits =
      ifStmt.children.size() > 1 && definitelyExits(*ifStmt.children[1]);
  return thenExits != elseExits;
}

class CollectiveChecker {
 public:
  CollectiveChecker(const SummaryMap& summaries, const std::string& file,
                    DiagnosticEngine& diags)
      : summaries_(summaries), file_(file), diags_(diags) {}

  void run(const Stmt& root) { walk(root); }

 private:
  /// Returns the sequence of collectives this subtree executes on the
  /// nodes that reach it, reporting divergence along the way.
  std::vector<CollEvent> walk(const Stmt& s) {
    std::vector<CollEvent> seq;
    switch (s.kind) {
      case Stmt::Kind::Actions:
        collectActions(s, seq);
        return seq;
      case Stmt::Kind::Seq: {
        bool divergedExit = false;
        int divergeLine = 0;
        for (const auto& child : s.children) {
          std::vector<CollEvent> sub = walk(*child);
          if (divergedExit && !sub.empty()) {
            diags_.error("DS501", file_, sub[0].line, sub[0].col,
                         sub[0].desc +
                             " is reached only by a node-identity-dependent "
                             "subset of nodes (the branch at line " +
                             std::to_string(divergeLine) +
                             " exits early on some nodes); collectives must "
                             "run on every node in the same order");
            divergedExit = false;  // one report per divergence point
          }
          append(seq, sub);
          if (child->kind == Stmt::Kind::If && child->nodeDependent &&
              exitAsymmetric(*child)) {
            divergedExit = true;
            divergeLine = child->line;
          }
        }
        return seq;
      }
      case Stmt::Kind::If: {
        std::vector<CollEvent> condSeq = walkList(s.cond);
        std::vector<CollEvent> thenSeq =
            s.children.empty() ? std::vector<CollEvent>{}
                               : walk(*s.children[0]);
        std::vector<CollEvent> elseSeq =
            s.children.size() > 1 ? walk(*s.children[1])
                                  : std::vector<CollEvent>{};
        if (s.nodeDependent && !sameSeq(thenSeq, elseSeq)) {
          if (thenSeq.empty() || elseSeq.empty()) {
            const std::vector<CollEvent>& div =
                thenSeq.empty() ? elseSeq : thenSeq;
            diags_.error(
                "DS501", file_, div[0].line, div[0].col,
                div[0].desc +
                    " is executed only when a node-identity-dependent "
                    "condition (line " +
                    std::to_string(s.line) +
                    ") holds; collectives must run on every node in the "
                    "same order");
          } else {
            diags_.error("DS502", file_, s.line, s.col,
                         "node-dependent branches execute collectives in "
                         "different orders: one branch runs [" +
                             listSeq(thenSeq) + "], the other [" +
                             listSeq(elseSeq) + "]");
          }
        }
        append(condSeq, thenSeq);
        if (!sameSeq(thenSeq, elseSeq)) append(condSeq, elseSeq);
        return condSeq;
      }
      case Stmt::Kind::Loop:
      case Stmt::Kind::DoLoop: {
        std::vector<CollEvent> condSeq = walkList(s.cond);
        std::vector<CollEvent> bodySeq =
            s.children.empty() ? std::vector<CollEvent>{}
                               : walk(*s.children[0]);
        if (s.nodeDependent && !(condSeq.empty() && bodySeq.empty())) {
          const CollEvent& first =
              bodySeq.empty() ? condSeq[0] : bodySeq[0];
          diags_.error("DS503", file_, first.line, first.col,
                       first.desc +
                           " executes inside a loop whose trip count "
                           "depends on node identity (line " +
                           std::to_string(s.line) +
                           "); nodes would issue different numbers of "
                           "collectives");
        }
        append(condSeq, bodySeq);
        return condSeq;
      }
      case Stmt::Kind::Switch: {
        std::vector<CollEvent> condSeq = walkList(s.cond);
        std::vector<CollEvent> bodySeq =
            s.children.empty() ? std::vector<CollEvent>{}
                               : walk(*s.children[0]);
        if (s.nodeDependent && !bodySeq.empty()) {
          diags_.error("DS501", file_, bodySeq[0].line, bodySeq[0].col,
                       bodySeq[0].desc +
                           " is executed under a node-identity-dependent "
                           "switch (line " +
                           std::to_string(s.line) +
                           "); collectives must run on every node in the "
                           "same order");
        }
        append(condSeq, bodySeq);
        return condSeq;
      }
      case Stmt::Kind::Try: {
        for (const auto& c : s.children) append(seq, walk(*c));
        return seq;
      }
      case Stmt::Kind::Return:
      case Stmt::Kind::Break:
      case Stmt::Kind::Continue:
        return seq;
    }
    return seq;
  }

  std::vector<CollEvent> walkList(
      const std::vector<std::unique_ptr<Stmt>>& stmts) {
    std::vector<CollEvent> seq;
    for (const auto& s : stmts) append(seq, walk(*s));
    return seq;
  }

  void collectActions(const Stmt& s, std::vector<CollEvent>& seq) const {
    for (const Action& a : s.actions) {
      if (a.kind == Action::Kind::StreamDecl) {
        seq.push_back(CollEvent{
            "collective open of d/stream '" + a.name + "'", a.line, a.col});
      } else if (a.kind == Action::Kind::Event &&
                 ds::protocol::info(a.event).collective) {
        seq.push_back(CollEvent{std::string("collective ") +
                                    ds::protocol::info(a.event).name +
                                    " on d/stream '" + a.name + "'",
                                a.line, a.col});
      } else if (a.kind == Action::Kind::Call) {
        auto it = summaries_.find(a.callee);
        if (it != summaries_.end() && it->second.collective) {
          seq.push_back(CollEvent{"collective-performing call to '" +
                                      a.callee + "'",
                                  a.line, a.col});
        }
      }
    }
  }

  static void append(std::vector<CollEvent>& into,
                     const std::vector<CollEvent>& from) {
    into.insert(into.end(), from.begin(), from.end());
  }

  const SummaryMap& summaries_;
  const std::string file_;
  DiagnosticEngine& diags_;
};

}  // namespace

void analyzeProtocol(const sg::TokenStream& stream, DiagnosticEngine& diags) {
  analyzeProtocol(stream, diags, ProtocolOptions{});
}

void analyzeProtocol(const sg::TokenStream& stream, DiagnosticEngine& diags,
                     const ProtocolOptions& options) {
  if (stream.tokens.empty()) return;
  // Interprocedural layer first: helper summaries (reports violations a
  // helper trips in every call context at their body location).
  const SummaryMap summaries = computeSummaries(stream, diags);
  std::set<std::string> helperNames;
  for (const auto& [name, fn] : summaries) {
    (void)fn;
    helperNames.insert(name);
  }
  const std::unique_ptr<Stmt> root = parseUnit(stream, helperNames);
  const Cfg cfg = buildCfg(*root);
  DataflowOptions dfOpts;
  dfOpts.strict = options.strict;
  dfOpts.summaries = &summaries;
  runDataflow(cfg, {}, {}, stream.file, dfOpts, diags);
  CollectiveChecker(summaries, stream.file, diags).run(*root);
}

}  // namespace pcxx::dslint
