// Static/dynamic differential over the Figure 2 protocol table
// (src/dstream/protocol.h). Every short op sequence runs on a 2-node
// machine and is rendered as a C++ snippet for dslint; the runtime's first
// StateError and dslint's first must-error diagnostic must land on the same
// op. The table's Lint rows are the only exceptions, each reported by
// dslint and legal at runtime:
//   (Closed, close)             DS104  a second close() is a no-op;
//   (Inserting, destructor)     DS106  the destructor warns, it cannot throw;
//   (Closed, any other member)  DS105  not in the op sets below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/dslint/protocol.h"
#include "src/dstream/dstream.h"
#include "src/dstream/protocol.h"
#include "src/streamgen/lexer.h"
#include "src/util/log.h"
#include "tests/common/test_helpers.h"

namespace {

using namespace pcxx;
using ds::protocol::Op;
using ds::protocol::Verdict;

constexpr std::int64_t kElems = 8;
constexpr int kRecords = 5;
constexpr int kInserts = 5;
constexpr int kFirstOpLine = 4;  // snippet lines 1-3: signature, open, decls

using Seq = std::vector<Op>;

/// Index of the op that threw StateError, or -1. Any other exception
/// escapes and fails the run.
template <typename Stream, typename Apply>
int runSeq(Stream& s, const Seq& seq, Apply&& apply) {
  for (size_t i = 0; i < seq.size(); ++i) {
    try {
      apply(s, seq[i]);
    } catch (const StateError&) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string renderOp(Op op) {
  switch (op) {
    case Op::Insert: return "  s << x;\n";
    case Op::Extract: return "  s >> x;\n";
    case Op::SeekRecord: return "  s.seekRecord(0);\n";
    case Op::Project: return "  s.project(fields);\n";
    default: break;
  }
  std::string name = ds::protocol::info(op).name;  // "write()"
  return "  s." + name + ";\n";
}

std::string render(const char* streamType, const Seq& seq) {
  std::string src = "void f() {\n  pcxx::ds::";
  src.append(streamType).append(" s(\"f.ds\");\n");
  src += "  int x = 0; std::vector<unsigned> fields;\n";
  for (Op op : seq) src += renderOp(op);
  src += "}\n";
  return src;
}

/// Error-severity dslint diagnostics of a snippet, as (line, id).
std::vector<std::pair<int, std::string>> lintErrors(const std::string& src) {
  dslint::DiagnosticEngine diags;
  dslint::analyzeProtocol(sg::lex(src, "seq.cpp"), diags);
  std::vector<std::pair<int, std::string>> out;
  for (const auto& d : diags.all()) {
    if (d.severity == dslint::Severity::Error) out.emplace_back(d.line, d.id);
  }
  return out;
}

/// Compare one sequence's runtime outcome with dslint's verdicts, walking
/// the table alongside to name the expected id of every op.
template <typename S>
void compare(const char* streamType, const Seq& seq, int threwAt) {
  const std::string src = render(streamType, seq);
  std::vector<std::pair<int, std::string>> expected;
  S state{};
  for (size_t i = 0; i < seq.size(); ++i) {
    const auto row = ds::protocol::row(state, seq[i]);
    const int line = kFirstOpLine + static_cast<int>(i);
    if (row.verdict == Verdict::Throw) {
      // The runtime throws exactly where the table says it does.
      EXPECT_EQ(threwAt, static_cast<int>(i)) << src;
      expected.emplace_back(line, row.id);
      break;
    }
    EXPECT_NE(threwAt, static_cast<int>(i)) << src;
    if (row.verdict == Verdict::Lint) expected.emplace_back(line, row.id);
    state = row.next;
    if (i + 1 == seq.size()) {
      const auto end = ds::protocol::row(state, Op::Destroy);
      if (end.verdict == Verdict::Lint) {
        expected.emplace_back(kFirstOpLine + static_cast<int>(seq.size()),
                              end.id);
      }
    }
  }
  EXPECT_EQ(lintErrors(src), expected) << src;
}

/// Breadth-first enumeration: a sequence is extended only while the
/// runtime has not thrown. `runLevel` runs a batch of sequences and
/// returns each one's throw index.
template <typename RunLevel>
std::vector<std::pair<Seq, int>> enumerate(const std::vector<Op>& ops,
                                           size_t maxLen, RunLevel runLevel) {
  std::vector<std::pair<Seq, int>> all;
  std::vector<Seq> frontier{Seq{}};
  for (size_t len = 1; len <= maxLen; ++len) {
    std::vector<Seq> level;
    for (const Seq& prefix : frontier) {
      for (Op op : ops) {
        Seq s = prefix;
        s.push_back(op);
        level.push_back(std::move(s));
      }
    }
    const std::vector<int> threw = runLevel(level);
    frontier.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      if (threw[i] < 0) frontier.push_back(level[i]);
      all.emplace_back(std::move(level[i]), threw[i]);
    }
  }
  return all;
}

class QuietLog {
 public:
  QuietLog() : saved_(Logger::instance().level()) {
    // Destroying a stream with pending inserts warns; expected here.
    Logger::instance().setLevel(LogLevel::Error);
  }
  ~QuietLog() { Logger::instance().setLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST(ProtocolDifferential, OutputSequencesAgreeWithDslint) {
  QuietLog quiet;
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  auto runLevel = [&](const std::vector<Seq>& level) {
    std::vector<int> threw(level.size(), -1);
    m.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(kElems, &P, coll::DistKind::Block);
      coll::Collection<int> g(&d);
      for (size_t k = 0; k < level.size(); ++k) {
        ds::OStream s(fs, &d, "out.ds");
        const int at = runSeq(s, level[k], [&](ds::OStream& o, Op op) {
          if (op == Op::Insert) o << g;
          if (op == Op::Write) o.write();
          if (op == Op::Close) o.close();
        });
        if (node.id() == 0) threw[k] = at;
      }
    });
    return threw;
  };
  const auto all =
      enumerate({Op::Insert, Op::Write, Op::Close}, 5, runLevel);
  for (const auto& [seq, at] : all) {
    compare<ds::protocol::OutState>("OStream", seq, at);
  }
  std::printf("output sequences: %zu\n", all.size());
}

TEST(ProtocolDifferential, InputSequencesAgreeWithDslint) {
  pfs::Pfs fs = test::memFs();
  rt::Machine m(2);
  m.run([&](rt::Node&) {
    coll::Processors P;
    coll::Distribution d(kElems, &P, coll::DistKind::Block);
    coll::Collection<int> g(&d);
    g.forEachLocal([](int& v, std::int64_t i) { v = static_cast<int>(i); });
    ds::OStream s(fs, &d, "in.ds");
    for (int r = 0; r < kRecords; ++r) {
      for (int k = 0; k < kInserts; ++k) s << g;
      s.write();
    }
  });
  // Projecting every insert keeps each record's extract count, so a
  // projected read still serves any run of extracts below.
  const std::vector<std::uint32_t> everyInsert{0, 1, 2, 3, 4};
  auto runLevel = [&](const std::vector<Seq>& level) {
    std::vector<int> threw(level.size(), -1);
    m.run([&](rt::Node& node) {
      coll::Processors P;
      coll::Distribution d(kElems, &P, coll::DistKind::Block);
      coll::Collection<int> g(&d);
      for (size_t k = 0; k < level.size(); ++k) {
        ds::IStream s(fs, &d, "in.ds");
        const int at = runSeq(s, level[k], [&](ds::IStream& in, Op op) {
          switch (op) {
            case Op::Read: in.read(); break;
            case Op::UnsortedRead: in.unsortedRead(); break;
            case Op::Extract: in >> g; break;
            case Op::SkipRecord: in.skipRecord(); break;
            case Op::SeekRecord: in.seekRecord(0); break;
            case Op::Rewind: in.rewind(); break;
            case Op::Project: in.project(everyInsert); break;
            case Op::AtEnd: (void)in.atEnd(); break;
            case Op::Close: in.close(); break;
            default: break;
          }
        });
        if (node.id() == 0) threw[k] = at;
      }
    });
    return threw;
  };
  const auto all = enumerate(
      {Op::Read, Op::UnsortedRead, Op::Extract, Op::SkipRecord,
       Op::SeekRecord, Op::Rewind, Op::Project, Op::AtEnd, Op::Close},
      4, runLevel);
  for (const auto& [seq, at] : all) {
    compare<ds::protocol::InState>("IStream", seq, at);
  }
  std::printf("input sequences: %zu\n", all.size());
}

}  // namespace
