#include "dslint/cfg.h"

#include <algorithm>

namespace pcxx::dslint {

using sg::TokKind;
using sg::Token;

namespace {

/// Identifiers that denote node identity by convention (paper §2: `this`
/// inside an element, exposed here as the runtime's node handle).
bool isNodeIdentityIdent(const std::string& s) {
  return s == "thisNode" || s == "myNode" || s == "myRank" ||
         s == "nodeId" || s == "node_id" || s == "rank";
}

// -- the parser ---------------------------------------------------------------

class Parser {
 public:
  Parser(const sg::TokenStream& ts, const std::set<std::string>& helpers,
         const std::vector<PreStream>& params, size_t begin, size_t end)
      : toks_(ts.tokens), helpers_(helpers), pos_(begin),
        end_(std::min(end, ts.tokens.size())) {
    scopes_.emplace_back();
    for (const PreStream& p : params) {
      scopes_.back().streams.insert(p.name);
      // No declOrder entry: parameters have no ScopeEnd (the caller owns
      // the stream) and no StreamDecl (their state is symbolic).
    }
  }

  std::unique_ptr<Stmt> run() {
    auto root = std::make_unique<Stmt>();
    root->kind = Stmt::Kind::Seq;
    while (!atEnd()) {
      if (cur().isSymbol("}")) {
        advance();  // stray; keep walking
        continue;
      }
      parseStatement(*root);
    }
    emitScopeEnds(*root, lastToken());
    scopes_.pop_back();
    return root;
  }

 private:
  struct Scope {
    std::set<std::string> streams;
    std::set<std::string> colls;
    std::vector<std::string> declOrder;  ///< streams declared here, for ~
  };

  // -- token helpers ----------------------------------------------------------

  const Token& cur() const { return toks_[std::min(pos_, end_ - 1)]; }
  const Token& peek(size_t ahead = 1) const {
    return toks_[std::min(pos_ + ahead, end_ - 1)];
  }
  const Token& lastToken() const { return toks_[end_ - 1]; }
  void advance() {
    if (pos_ + 1 < end_) ++pos_;
    else pos_ = end_;
  }
  bool atEnd() const {
    return pos_ >= end_ || toks_[pos_].is(TokKind::EndOfFile);
  }

  /// True at a `<<` / `>>` operator: the lexer emits two adjacent one-char
  /// symbol tokens (only "::" is fused).
  bool atShiftOp(char c) const {
    const std::string s(1, c);
    return cur().isSymbol(s) && peek().isSymbol(s) &&
           peek().line == cur().line && peek().col == cur().col + 1;
  }

  void skipAngles() {
    advance();  // '<'
    int depth = 1;
    while (depth > 0 && !atEnd()) {
      if (cur().isSymbol("<")) ++depth;
      if (cur().isSymbol(">")) --depth;
      advance();
    }
  }

  // -- scope helpers ----------------------------------------------------------

  bool isStream(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->streams.count(name)) return true;
    }
    return false;
  }
  bool isColl(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->colls.count(name)) return true;
    }
    return false;
  }

  /// Append an action to the trailing Actions stmt of `parent` (creating
  /// one as needed).
  void emit(Stmt& parent, Action a) {
    if (parent.children.empty() ||
        parent.children.back()->kind != Stmt::Kind::Actions) {
      auto run = std::make_unique<Stmt>();
      run->kind = Stmt::Kind::Actions;
      run->line = a.line;
      run->col = a.col;
      parent.children.push_back(std::move(run));
    }
    parent.children.back()->actions.push_back(std::move(a));
  }

  void emitScopeEnds(Stmt& parent, const Token& at) {
    Scope& s = scopes_.back();
    for (auto it = s.declOrder.rbegin(); it != s.declOrder.rend(); ++it) {
      Action a;
      a.kind = Action::Kind::ScopeEnd;
      a.name = *it;
      a.line = at.line;
      a.col = at.col;
      emit(parent, std::move(a));
    }
  }

  // -- statements -------------------------------------------------------------

  /// cur() == '{': parse the compound statement into a new Seq child.
  void parseBlock(Stmt& parent) {
    auto seq = std::make_unique<Stmt>();
    seq->kind = Stmt::Kind::Seq;
    seq->line = cur().line;
    seq->col = cur().col;
    scopes_.emplace_back();
    advance();  // '{'
    while (!atEnd() && !cur().isSymbol("}")) {
      parseStatement(*seq);
    }
    const Token closing = cur();
    if (cur().isSymbol("}")) advance();
    emitScopeEnds(*seq, closing);
    scopes_.pop_back();
    parent.children.push_back(std::move(seq));
  }

  /// A control-flow arm: a compound statement or one statement; either way
  /// variables it declares die at its end. Returns the arm as a Seq.
  std::unique_ptr<Stmt> parseControlled() {
    auto holder = std::make_unique<Stmt>();
    holder->kind = Stmt::Kind::Seq;
    holder->line = cur().line;
    holder->col = cur().col;
    if (cur().isSymbol("{")) {
      parseBlock(*holder);
      return holder;
    }
    scopes_.emplace_back();
    parseStatement(*holder);
    emitScopeEnds(*holder, toks_[pos_ == 0 ? 0 : pos_ - 1]);
    scopes_.pop_back();
    return holder;
  }

  void parseStatement(Stmt& parent) {
    if (cur().isSymbol("{")) {
      parseBlock(parent);
      return;
    }
    if (cur().isSymbol(";")) {
      advance();
      return;
    }
    if (cur().is(TokKind::Identifier)) {
      const std::string& kw = cur().text;
      if (kw == "if") {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::If;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        if (cur().isIdent("constexpr")) advance();
        if (cur().isSymbol("(")) parseCondRegion(*s);
        s->children.push_back(parseControlled());
        if (cur().isIdent("else")) {
          advance();
          s->children.push_back(parseControlled());
        }
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "for" || kw == "while") {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::Loop;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        if (cur().isSymbol("(")) parseCondRegion(*s);
        s->children.push_back(parseControlled());
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "do") {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::DoLoop;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        s->children.push_back(parseControlled());
        if (cur().isIdent("while")) {
          advance();
          if (cur().isSymbol("(")) parseCondRegion(*s);
          if (cur().isSymbol(";")) advance();
        }
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "switch") {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::Switch;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        if (cur().isSymbol("(")) parseCondRegion(*s);
        s->children.push_back(parseControlled());
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "try") {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::Try;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        s->children.push_back(parseControlled());
        while (cur().isIdent("catch")) {
          advance();
          if (cur().isSymbol("(")) skipParens();
          s->children.push_back(parseControlled());
        }
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "return" || kw == "throw") {
        const Token at = cur();
        advance();
        scanSimple(parent);  // the return expression may touch streams
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::Return;
        s->line = at.line;
        s->col = at.col;
        Action a;
        a.kind = Action::Kind::EarlyExit;
        a.line = at.line;
        a.col = at.col;
        s->actions.push_back(std::move(a));
        parent.children.push_back(std::move(s));
        return;
      }
      if (kw == "break" || kw == "continue") {
        auto s = std::make_unique<Stmt>();
        s->kind = kw == "break" ? Stmt::Kind::Break : Stmt::Kind::Continue;
        s->line = cur().line;
        s->col = cur().col;
        advance();
        if (cur().isSymbol(";")) advance();
        parent.children.push_back(std::move(s));
        return;
      }
    }
    scanSimple(parent);
  }

  // -- region scanning --------------------------------------------------------

  /// Scan one simple statement: until ';' at depth 0 (consumed) or '}' at
  /// depth 0 (left for the caller). Emits actions; descends into any '{'
  /// (lambda bodies, nested blocks) as a full scope.
  void scanSimple(Stmt& parent) {
    int depth = 0;  // () and [] nesting
    bool first = true;
    while (!atEnd()) {
      if (depth == 0 && cur().isSymbol(";")) {
        advance();
        return;
      }
      if (depth == 0 && cur().isSymbol("}")) return;
      if (cur().isSymbol("(") || cur().isSymbol("[")) {
        ++depth;
        advance();
        continue;
      }
      if (cur().isSymbol(")") || cur().isSymbol("]")) {
        if (depth > 0) --depth;
        advance();
        continue;
      }
      if (cur().isSymbol("{")) {
        parseBlock(parent);
        continue;
      }
      if (cur().is(TokKind::Identifier)) {
        if (depth == 0 && first &&
            (matchStreamDecl(parent) || matchCollectionDecl(parent))) {
          first = false;
          continue;
        }
        if (matchHelperCall(parent)) {
          first = false;
          continue;
        }
        if (isStream(cur().text)) {
          scanStreamUse(parent);
          first = false;
          continue;
        }
        // `opts.salvage = true;` marks an options variable whose streams
        // open in salvage mode (flow-insensitive, as a lint heuristic).
        if (peek().isSymbol(".") && peek(2).isIdent("salvage") &&
            peek(3).isSymbol("=") && peek(4).isIdent("true")) {
          salvageOpts_.insert(cur().text);
        }
      }
      first = false;
      advance();
    }
  }

  /// Parse a condition region into `out.cond`, detecting node-identity
  /// dependence. cur() == '('.
  void parseCondRegion(Stmt& out) {
    advance();  // '('
    int depth = 1;
    // cond stmts are appended to a scratch Seq then moved.
    Stmt scratch;
    scratch.kind = Stmt::Kind::Seq;
    while (!atEnd() && depth > 0) {
      if (cur().isSymbol("(")) {
        ++depth;
        advance();
        continue;
      }
      if (cur().isSymbol(")")) {
        --depth;
        advance();
        continue;
      }
      if (cur().isSymbol("{")) {
        parseBlock(scratch);  // lambda body inside the condition/args
        continue;
      }
      if (cur().is(TokKind::Identifier)) {
        if (isNodeIdentityIdent(cur().text)) out.nodeDependent = true;
        if ((cur().isIdent("node") || cur().isIdent("machine")) &&
            peek().isSymbol(".") &&
            (peek(2).isIdent("id") || peek(2).isIdent("nodeId") ||
             peek(2).isIdent("rank"))) {
          out.nodeDependent = true;
        }
        if (matchHelperCall(scratch)) continue;
        if (isStream(cur().text)) {
          scanStreamUse(scratch);
          continue;
        }
      }
      advance();
    }
    out.cond = std::move(scratch.children);
  }

  /// Skip a balanced parenthesized region without scanning (catch
  /// parameter declarations). cur() == '('.
  void skipParens() {
    advance();
    int depth = 1;
    while (!atEnd() && depth > 0) {
      if (cur().isSymbol("(")) ++depth;
      if (cur().isSymbol(")")) --depth;
      advance();
    }
  }

  // -- declarations -----------------------------------------------------------

  struct CtorArgs {
    std::vector<std::string> refs;
    bool simple = true;
    bool salvage = false;
  };

  /// Collect constructor arguments: the `&ident` reference args in order
  /// and whether every `&...` arg was a simple `&ident` (an opaque layout
  /// argument such as `&layout.distribution()` makes the layout unknown
  /// and disables D4 checks). Also notes the `salvage` stream option,
  /// inline or via an options variable. cur() == '('.
  CtorArgs scanCtorArgs() {
    CtorArgs out;
    advance();  // '('
    int depth = 1;
    while (!atEnd() && depth > 0) {
      if (cur().isSymbol("(")) ++depth;
      if (cur().isSymbol(")")) {
        --depth;
        advance();
        continue;
      }
      if (cur().is(TokKind::Identifier) &&
          (cur().text == "salvage" || salvageOpts_.count(cur().text))) {
        out.salvage = true;
      }
      if (depth == 1 && cur().isSymbol("&")) {
        if (peek().is(TokKind::Identifier) &&
            (peek(2).isSymbol(",") || peek(2).isSymbol(")"))) {
          out.refs.push_back(peek().text);
        } else {
          out.simple = false;
        }
      }
      advance();
    }
    return out;
  }

  /// ds::OStream name(args); (also pcxx::ds::, bare, and the oStream /
  /// iStream aliases). Emits a StreamDecl and registers the name.
  bool matchStreamDecl(Stmt& parent) {
    const size_t save = pos_;
    if (cur().isIdent("pcxx") && peek().isSymbol("::")) {
      advance();
      advance();
    }
    if (cur().isIdent("ds") && peek().isSymbol("::")) {
      advance();
      advance();
    }
    Dir dir;
    if (cur().isIdent("OStream") || cur().isIdent("oStream")) {
      dir = Dir::Out;
    } else if (cur().isIdent("IStream") || cur().isIdent("iStream")) {
      dir = Dir::In;
    } else {
      pos_ = save;
      return false;
    }
    advance();
    if (!cur().is(TokKind::Identifier) || !peek().isSymbol("(")) {
      pos_ = save;
      return false;
    }
    Action a;
    a.kind = Action::Kind::StreamDecl;
    a.dir = dir;
    a.name = cur().text;
    a.line = cur().line;
    a.col = cur().col;
    advance();  // name; cur() == '('
    const CtorArgs args = scanCtorArgs();
    a.layoutKnown = args.simple && !args.refs.empty();
    if (!args.refs.empty()) a.distVar = args.refs[0];
    if (args.refs.size() > 1) a.alignVar = args.refs[1];
    a.salvage = args.salvage && dir == Dir::In;
    Scope& scope = scopes_.back();
    if (!scope.streams.count(a.name)) scope.declOrder.push_back(a.name);
    scope.streams.insert(a.name);
    emit(parent, std::move(a));
    return true;
  }

  /// coll::Collection<T> name(args); — tracked for D4 layout comparison.
  bool matchCollectionDecl(Stmt& parent) {
    const size_t save = pos_;
    if (cur().isIdent("pcxx") && peek().isSymbol("::")) {
      advance();
      advance();
    }
    if (cur().isIdent("coll") && peek().isSymbol("::")) {
      advance();
      advance();
    }
    if (!cur().isIdent("Collection") || !peek().isSymbol("<")) {
      pos_ = save;
      return false;
    }
    advance();  // Collection; cur() == '<'
    skipAngles();
    if (!cur().is(TokKind::Identifier) || !peek().isSymbol("(")) {
      pos_ = save;
      return false;
    }
    Action a;
    a.kind = Action::Kind::CollDecl;
    a.name = cur().text;
    a.line = cur().line;
    a.col = cur().col;
    advance();  // name; cur() == '('
    const CtorArgs args = scanCtorArgs();
    a.layoutKnown = args.simple && !args.refs.empty();
    if (!args.refs.empty()) a.distVar = args.refs[0];
    if (args.refs.size() > 1) a.alignVar = args.refs[1];
    scopes_.back().colls.insert(a.name);
    emit(parent, std::move(a));
    return true;
  }

  // -- helper calls -----------------------------------------------------------

  /// `helper(out, ...)`: a call to a function with a protocol summary.
  /// Bare stream arguments become Call bindings; streams buried in more
  /// complex argument expressions escape (conservative).
  bool matchHelperCall(Stmt& parent) {
    if (!helpers_.count(cur().text) || !peek().isSymbol("(")) return false;
    // Method calls through an object are not summary applications (the
    // summary names a free function); do not misbind `obj.helper(...)`.
    if (pos_ > 0 && toks_[pos_ - 1].isSymbol(".")) return false;
    Action call;
    call.kind = Action::Kind::Call;
    call.callee = cur().text;
    call.line = cur().line;
    call.col = cur().col;
    advance();  // name
    advance();  // '('
    int depth = 1;
    int argIndex = 0;
    bool argStart = true;
    while (!atEnd() && depth > 0) {
      if (cur().isSymbol("(") || cur().isSymbol("[")) {
        ++depth;
        argStart = false;
        advance();
        continue;
      }
      if (cur().isSymbol(")") || cur().isSymbol("]")) {
        --depth;
        advance();
        continue;
      }
      if (cur().isSymbol("{")) {
        parseBlock(parent);  // lambda argument
        argStart = false;
        continue;
      }
      if (depth == 1 && cur().isSymbol(",")) {
        ++argIndex;
        argStart = true;
        advance();
        continue;
      }
      if (cur().is(TokKind::Identifier) && isStream(cur().text)) {
        const bool bare =
            (argStart ||
             (pos_ > 0 && toks_[pos_ - 1].isSymbol("&") && depth == 1)) &&
            (peek().isSymbol(",") || (peek().isSymbol(")") && depth == 1));
        if (bare) {
          call.callArgs.emplace_back(cur().text, argIndex);
        } else {
          Action esc;
          esc.kind = Action::Kind::Escape;
          esc.name = cur().text;
          esc.line = cur().line;
          esc.col = cur().col;
          emit(parent, std::move(esc));
        }
        argStart = false;
        advance();
        continue;
      }
      if (!cur().isSymbol("&")) argStart = false;
      advance();
    }
    if (!call.callArgs.empty()) emit(parent, std::move(call));
    return true;
  }

  // -- stream uses ------------------------------------------------------------

  /// cur() is an identifier naming an in-scope stream. Classify the use.
  void scanStreamUse(Stmt& parent) {
    const Token nameTok = cur();
    const std::string name = nameTok.text;
    advance();
    if (cur().isSymbol(".") && peek().is(TokKind::Identifier) &&
        peek(2).isSymbol("(")) {
      const Token methodTok = peek();
      advance();  // '.'
      advance();  // method; cur() == '(' — scanned by the caller for events
      Action a;
      a.kind = Action::Kind::Event;
      a.name = name;
      a.event = ds::protocol::opForMethod(methodTok.text);
      a.line = methodTok.line;
      a.col = methodTok.col;
      emit(parent, std::move(a));
      return;
    }
    if (atShiftOp('<') || atShiftOp('>')) {
      const bool insert = atShiftOp('<');
      while (atShiftOp(insert ? '<' : '>')) {
        const Token opTok = cur();
        advance();  // first '<' / '>'
        advance();  // second
        Action a;
        a.kind = Action::Kind::Event;
        a.name = name;
        a.event = insert ? Op::Insert : Op::Extract;
        a.operand = scanOperand();
        a.line = opTok.line;
        a.col = opTok.col;
        emit(parent, std::move(a));
      }
      return;
    }
    // The stream is named in some other context (passed by reference, its
    // address taken, ...). Conservative: the stream escapes.
    Action a;
    a.kind = Action::Kind::Escape;
    a.name = name;
    a.line = nameTok.line;
    a.col = nameTok.col;
    emit(parent, std::move(a));
  }

  /// Scan one `<<`/`>>` operand; returns the collection variable name when
  /// the operand is `g` or `g.field(...)` for a tracked collection.
  std::string scanOperand() {
    std::string collName;
    if (cur().is(TokKind::Identifier) && isColl(cur().text)) {
      collName = cur().text;
    }
    int depth = 0;
    while (!atEnd()) {
      if (depth == 0 &&
          (cur().isSymbol(";") || cur().isSymbol(",") || atShiftOp('<') ||
           atShiftOp('>') || cur().isSymbol("}"))) {
        break;
      }
      if (depth == 0 && cur().isSymbol(")")) break;
      if (cur().isSymbol("(") || cur().isSymbol("[") || cur().isSymbol("{")) {
        ++depth;
        advance();
        continue;
      }
      if (cur().isSymbol(")") || cur().isSymbol("]") || cur().isSymbol("}")) {
        --depth;
        advance();
        continue;
      }
      advance();
    }
    return collName;
  }

  const std::vector<Token>& toks_;
  const std::set<std::string>& helpers_;
  size_t pos_;
  size_t end_;
  std::vector<Scope> scopes_;
  /// Names of StreamOptions variables observed with `.salvage = true`.
  std::set<std::string> salvageOpts_;
};

// -- CFG construction ---------------------------------------------------------

class CfgBuilder {
 public:
  Cfg build(const Stmt& root) {
    cfg_.entry = newBlock();
    int cur = buildSeq(root.children, cfg_.entry);
    cfg_.exit = newBlock();
    if (cur >= 0) edge(cur, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  int newBlock() {
    cfg_.blocks.emplace_back();
    return static_cast<int>(cfg_.blocks.size()) - 1;
  }

  void edge(int from, int to, bool back = false) {
    cfg_.blocks[static_cast<size_t>(from)].succs.push_back(to);
    cfg_.blocks[static_cast<size_t>(to)].preds.push_back(from);
    if (back) {
      cfg_.blocks[static_cast<size_t>(to)].backedgePreds.push_back(from);
    }
  }

  /// Build a statement list starting in block `cur`. Returns the live
  /// block at the end, or -1 when every path left the list. Statements
  /// after a dead end build into orphan blocks (no predecessors), so the
  /// dataflow never visits them — the old engine's `env.dead` semantics.
  int buildSeq(const std::vector<std::unique_ptr<Stmt>>& stmts, int cur) {
    for (const auto& s : stmts) {
      if (cur < 0) cur = newBlock();  // unreachable continuation
      cur = buildStmt(*s, cur);
    }
    return cur;
  }

  int buildStmt(const Stmt& s, int cur) {
    switch (s.kind) {
      case Stmt::Kind::Seq:
        return buildSeq(s.children, cur);
      case Stmt::Kind::Actions: {
        auto& blk = cfg_.blocks[static_cast<size_t>(cur)];
        blk.actions.insert(blk.actions.end(), s.actions.begin(),
                           s.actions.end());
        return cur;
      }
      case Stmt::Kind::If: {
        cur = buildSeq(s.cond, cur);
        if (cur < 0) cur = newBlock();
        const int thenEntry = newBlock();
        edge(cur, thenEntry);
        int thenEnd = s.children.empty()
                          ? thenEntry
                          : buildStmt(*s.children[0], thenEntry);
        int elseEnd = cur;  // implicit fall-through
        if (s.children.size() > 1) {
          const int elseEntry = newBlock();
          edge(cur, elseEntry);
          elseEnd = buildStmt(*s.children[1], elseEntry);
        }
        if (thenEnd < 0 && elseEnd < 0) return -1;
        const int merge = newBlock();
        if (thenEnd >= 0) edge(thenEnd, merge);
        if (elseEnd >= 0) {
          if (s.children.size() > 1) edge(elseEnd, merge);
          else edge(cur, merge);
        }
        return merge;
      }
      case Stmt::Kind::Loop: {
        const int head = newBlock();
        edge(cur, head);
        int headEnd = buildSeq(s.cond, head);
        if (headEnd < 0) headEnd = head;
        const int body = newBlock();
        const int exit = newBlock();
        edge(headEnd, body);
        edge(headEnd, exit);
        breakTargets_.push_back(exit);
        continueTargets_.push_back(head);
        const int bodyEnd =
            s.children.empty() ? body : buildStmt(*s.children[0], body);
        breakTargets_.pop_back();
        continueTargets_.pop_back();
        if (bodyEnd >= 0) edge(bodyEnd, head, /*back=*/true);
        return exit;
      }
      case Stmt::Kind::DoLoop: {
        const int body = newBlock();
        edge(cur, body);
        const int exit = newBlock();
        const int condBlk = newBlock();
        breakTargets_.push_back(exit);
        continueTargets_.push_back(condBlk);
        const int bodyEnd =
            s.children.empty() ? body : buildStmt(*s.children[0], body);
        breakTargets_.pop_back();
        continueTargets_.pop_back();
        if (bodyEnd >= 0) edge(bodyEnd, condBlk);
        int condEnd = buildSeq(s.cond, condBlk);
        if (condEnd < 0) condEnd = condBlk;
        edge(condEnd, body, /*back=*/true);
        edge(condEnd, exit);
        return exit;
      }
      case Stmt::Kind::Switch: {
        cur = buildSeq(s.cond, cur);
        if (cur < 0) cur = newBlock();
        const int body = newBlock();
        const int exit = newBlock();
        edge(cur, body);
        edge(cur, exit);  // no-default fall-through
        breakTargets_.push_back(exit);
        const int bodyEnd =
            s.children.empty() ? body : buildStmt(*s.children[0], body);
        breakTargets_.pop_back();
        if (bodyEnd >= 0) edge(bodyEnd, exit);
        return exit;
      }
      case Stmt::Kind::Try: {
        const int bodyEnd =
            s.children.empty() ? cur : buildStmt(*s.children[0], cur);
        if (bodyEnd < 0) return -1;
        const int merge = newBlock();
        edge(bodyEnd, merge);
        for (size_t i = 1; i < s.children.size(); ++i) {
          const int hEntry = newBlock();
          edge(bodyEnd, hEntry);
          const int hEnd = buildStmt(*s.children[i], hEntry);
          if (hEnd >= 0) edge(hEnd, merge);
        }
        return merge;
      }
      case Stmt::Kind::Return: {
        auto& blk = cfg_.blocks[static_cast<size_t>(cur)];
        blk.actions.insert(blk.actions.end(), s.actions.begin(),
                           s.actions.end());
        return -1;
      }
      case Stmt::Kind::Break: {
        if (!breakTargets_.empty()) edge(cur, breakTargets_.back());
        return -1;
      }
      case Stmt::Kind::Continue: {
        if (!continueTargets_.empty()) {
          // A continue edge re-enters the loop, so it is a back edge for
          // while/for heads (the head dominates the body).
          const int target = continueTargets_.back();
          const bool back = !cfg_.blocks[static_cast<size_t>(target)]
                                 .preds.empty();
          edge(cur, target, back);
        }
        return -1;
      }
    }
    return cur;
  }

  Cfg cfg_;
  std::vector<int> breakTargets_;
  std::vector<int> continueTargets_;
};

}  // namespace

std::unique_ptr<Stmt> parseStatements(const sg::TokenStream& ts,
                                      const std::set<std::string>& helpers,
                                      const std::vector<PreStream>& params,
                                      size_t beginTok, size_t endTok) {
  if (ts.tokens.empty()) {
    auto root = std::make_unique<Stmt>();
    root->kind = Stmt::Kind::Seq;
    return root;
  }
  return Parser(ts, helpers, params, beginTok, endTok).run();
}

std::unique_ptr<Stmt> parseUnit(const sg::TokenStream& ts,
                                const std::set<std::string>& helpers) {
  return parseStatements(ts, helpers, {}, 0, ts.tokens.size());
}

Cfg buildCfg(const Stmt& root) { return CfgBuilder().build(root); }

}  // namespace pcxx::dslint
