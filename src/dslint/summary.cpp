#include "dslint/summary.h"

#include <set>
#include <vector>

namespace pcxx::dslint {
namespace {

using sg::TokKind;
using sg::Token;

struct StreamParam {
  std::string name;
  Dir dir = Dir::Out;
  int index = 0;
  int line = 0;
};

struct Candidate {
  std::string name;
  int line = 0;
  std::vector<StreamParam> params;
  size_t bodyBegin = 0, bodyEnd = 0;  ///< token range between the braces
};

bool isDeclKeyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",     "for",    "while",  "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
      "throw",  "do",     "else",   "operator", "case",   "goto",
      "declareStreamInserter", "declareStreamExtractor",
  };
  return kKw.count(s) != 0;
}

/// Match `[const] [pcxx::] [ds::] OStream & name` at t[i...end). On
/// success fills the outputs and advances i to the parameter name.
bool matchStreamParam(const std::vector<Token>& t, size_t& i, size_t end,
                      Dir& dir, std::string& name, int& line) {
  size_t j = i;
  auto at = [&](size_t k) -> const Token& {
    return t[std::min(k, end - 1)];
  };
  if (j >= end) return false;
  if (at(j).isIdent("const")) ++j;
  if (at(j).isIdent("pcxx") && at(j + 1).isSymbol("::")) j += 2;
  if (at(j).isIdent("ds") && at(j + 1).isSymbol("::")) j += 2;
  Dir d;
  if (at(j).isIdent("OStream") || at(j).isIdent("oStream")) {
    d = Dir::Out;
  } else if (at(j).isIdent("IStream") || at(j).isIdent("iStream")) {
    d = Dir::In;
  } else {
    return false;
  }
  ++j;
  if (!at(j).isSymbol("&")) return false;
  ++j;
  if (!at(j).is(TokKind::Identifier) || j >= end) return false;
  dir = d;
  name = at(j).text;
  line = at(j).line;
  i = j;
  return true;
}

/// Parse a parameter list starting at the '(' token index. Returns the
/// index of the matching ')' (or end on imbalance) and fills the stream
/// parameters with their zero-based argument positions.
size_t scanParamList(const std::vector<Token>& t, size_t open, size_t end,
                     std::vector<StreamParam>& params) {
  size_t i = open + 1;
  int depth = 1;
  int angles = 0;
  int argIndex = 0;
  bool argStart = true;
  while (i < end && depth > 0) {
    const Token& tok = t[i];
    if (tok.isSymbol("(")) {
      ++depth;
      argStart = false;
      ++i;
      continue;
    }
    if (tok.isSymbol(")")) {
      --depth;
      if (depth == 0) return i;
      ++i;
      continue;
    }
    // Template arguments inside a parameter type must not advance the
    // argument index (`std::map<int, int>& m`).
    if (tok.isSymbol("<") && i > 0 && t[i - 1].is(TokKind::Identifier)) {
      ++angles;
      ++i;
      continue;
    }
    if (tok.isSymbol(">") && angles > 0) {
      --angles;
      ++i;
      continue;
    }
    if (tok.isSymbol(",") && depth == 1 && angles == 0) {
      ++argIndex;
      argStart = true;
      ++i;
      continue;
    }
    if (argStart && tok.is(TokKind::Identifier)) {
      Dir dir;
      std::string name;
      int line = 0;
      size_t j = i;
      if (matchStreamParam(t, j, end, dir, name, line)) {
        params.push_back(StreamParam{name, dir, argIndex, line});
        i = j + 1;
        argStart = false;
        continue;
      }
      argStart = false;
    } else if (!tok.isSymbol("&") && !tok.isSymbol("*")) {
      argStart = false;
    }
    ++i;
  }
  return end;
}

/// Index of the '}' matching the '{' at `open`, or end on imbalance.
size_t matchBrace(const std::vector<Token>& t, size_t open, size_t end) {
  int depth = 0;
  for (size_t i = open; i < end; ++i) {
    if (t[i].isSymbol("{")) ++depth;
    if (t[i].isSymbol("}")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return end;
}

std::vector<Candidate> findCandidates(const std::vector<Token>& t) {
  std::vector<Candidate> out;
  const size_t n = t.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    // `auto name = [..](params) .. { body }` — a named lambda.
    if (t[i].isIdent("auto") && t[i + 1].is(TokKind::Identifier) &&
        i + 3 < n && t[i + 2].isSymbol("=") && t[i + 3].isSymbol("[")) {
      size_t j = i + 3;
      int depth = 0;
      while (j < n) {
        if (t[j].isSymbol("[")) ++depth;
        if (t[j].isSymbol("]")) {
          --depth;
          if (depth == 0) break;
        }
        ++j;
      }
      if (j + 1 >= n || !t[j + 1].isSymbol("(")) continue;
      Candidate c;
      c.name = t[i + 1].text;
      c.line = t[i + 1].line;
      const size_t close = scanParamList(t, j + 1, n, c.params);
      if (close >= n || c.params.empty()) continue;
      size_t b = close + 1;
      while (b < n && !t[b].isSymbol("{") && !t[b].isSymbol(";")) ++b;
      if (b >= n || !t[b].isSymbol("{")) continue;
      const size_t endBrace = matchBrace(t, b, n);
      if (endBrace >= n) continue;
      c.bodyBegin = b + 1;
      c.bodyEnd = endBrace;
      out.push_back(std::move(c));
      continue;
    }
    // `Type name(params) [const|noexcept] { body }` — a free function.
    if (!t[i].is(TokKind::Identifier) || isDeclKeyword(t[i].text) ||
        !t[i + 1].isSymbol("(")) {
      continue;
    }
    if (i == 0) continue;
    const Token& prev = t[i - 1];
    const bool typeBefore =
        (prev.is(TokKind::Identifier) && !isDeclKeyword(prev.text)) ||
        prev.isSymbol(">") || prev.isSymbol("&") || prev.isSymbol("*");
    if (!typeBefore) continue;
    // `Class::method` definitions are skipped: call sites use the bare
    // name only inside the class, where `this` context is unknown.
    if (i >= 2 && t[i - 1].is(TokKind::Identifier) &&
        t[i - 2].isSymbol("::")) {
      continue;
    }
    Candidate c;
    c.name = t[i].text;
    c.line = t[i].line;
    const size_t close = scanParamList(t, i + 1, n, c.params);
    if (close >= n || c.params.empty()) continue;
    size_t b = close + 1;
    while (b < n &&
           (t[b].isIdent("const") || t[b].isIdent("noexcept") ||
            t[b].isIdent("override") || t[b].isIdent("final"))) {
      ++b;
    }
    if (b >= n || !t[b].isSymbol("{")) continue;
    const size_t endBrace = matchBrace(t, b, n);
    if (endBrace >= n) continue;
    c.bodyBegin = b + 1;
    c.bodyEnd = endBrace;
    out.push_back(std::move(c));
  }
  return out;
}

/// Collect collective usage in a helper body: which stream variables see
/// a collective operation, and whether the body performs any collective
/// at all (including opening its own streams — `open` is collective).
void scanCollectives(const Stmt& s, const SummaryMap& known,
                     std::set<std::string>& streams, bool& any) {
  for (const Action& a : s.actions) {
    if (a.kind == Action::Kind::StreamDecl) any = true;
    if (a.kind == Action::Kind::Event &&
        ds::protocol::info(a.event).collective) {
      streams.insert(a.name);
      any = true;
    }
    if (a.kind == Action::Kind::Call) {
      auto it = known.find(a.callee);
      if (it != known.end() && it->second.collective) {
        any = true;
        for (const auto& [arg, idx] : a.callArgs) {
          (void)idx;
          streams.insert(arg);
        }
      }
    }
  }
  for (const auto& c : s.cond) scanCollectives(*c, known, streams, any);
  for (const auto& c : s.children) scanCollectives(*c, known, streams, any);
}

}  // namespace

SummaryMap computeSummaries(const sg::TokenStream& stream,
                            DiagnosticEngine& diags) {
  SummaryMap out;
  if (stream.tokens.empty()) return out;
  const std::vector<Candidate> candidates = findCandidates(stream.tokens);
  std::set<std::string> names;
  std::set<std::string> dups;
  for (const Candidate& c : candidates) {
    if (!names.insert(c.name).second) dups.insert(c.name);
  }
  for (const Candidate& c : candidates) {
    // Overload sets are ambiguous at bare-name call sites; stay
    // conservative and keep the escape semantics for them.
    if (dups.count(c.name) || out.count(c.name)) continue;
    std::vector<PreStream> params;
    for (const StreamParam& p : c.params) {
      params.push_back(PreStream{p.name, p.dir, p.line});
    }
    const std::unique_ptr<Stmt> root =
        parseStatements(stream, names, params, c.bodyBegin, c.bodyEnd);
    const Cfg cfg = buildCfg(*root);
    FnSummary fn;
    fn.name = c.name;
    fn.line = c.line;
    std::set<std::string> collectiveStreams;
    bool anyCollective = false;
    scanCollectives(*root, out, collectiveStreams, anyCollective);
    fn.collective = anyCollective;
    for (const StreamParam& p : c.params) {
      ParamSummary ps;
      ps.name = p.name;
      ps.index = p.index;
      ps.dir = p.dir;
      ps.collective = collectiveStreams.count(p.name) != 0;
      // A violation tripped in EVERY initial state is unconditional —
      // report it at the body location once. State-dependent ones go into
      // the summary and surface as DS108 at call sites.
      bool universal = true;
      bool firstSeed = true;
      std::string uid, umsg;
      int uline = 0, ucol = 0;
      for (unsigned bit = 1; bit <= kClosed; bit <<= 1) {
        if (!(stateUniverse(p.dir) & bit)) continue;
        const ProbeResult r =
            probeHelper(cfg, params, p.name, bit, out);
        ps.out[bit] = r.outStates;
        ps.escapes = ps.escapes || r.escaped;
        if (!r.errorId.empty()) {
          ps.errors[bit] = {r.errorId, r.errorMsg, r.errorLine};
        }
        if (firstSeed) {
          uid = r.errorId;
          umsg = r.errorMsg;
          uline = r.errorLine;
          ucol = r.errorCol;
          firstSeed = false;
        } else if (r.errorId != uid || r.errorLine != uline ||
                   r.errorCol != ucol) {
          universal = false;
        }
      }
      if (universal && !uid.empty()) {
        diags.error(uid, stream.file, uline, ucol,
                    umsg + " (in '" + c.name + "', for every call context)");
        // The defect is the helper's alone — do not re-report it as DS108
        // at every call site.
        ps.errors.clear();
      }
      fn.params.push_back(std::move(ps));
    }
    out[c.name] = std::move(fn);
  }
  for (const std::string& d : dups) out.erase(d);
  return out;
}

}  // namespace pcxx::dslint
