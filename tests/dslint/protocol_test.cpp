// Library-level tests for the D1/D4 protocol analysis: control-flow joins,
// loops, escapes, lambdas, and must-error reporting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dslint/protocol.h"
#include "src/streamgen/lexer.h"

namespace {

using pcxx::dslint::DiagnosticEngine;

std::vector<std::string> idsOf(const std::string& source) {
  DiagnosticEngine diags;
  pcxx::dslint::analyzeProtocol(pcxx::sg::lex(source, "t.cpp"), diags);
  diags.sort();
  std::vector<std::string> ids;
  for (const auto& d : diags.all()) ids.push_back(d.id);
  return ids;
}

TEST(ProtocolTest, CleanSequenceHasNoDiagnostics) {
  EXPECT_TRUE(idsOf(R"(
    void f() {
      pcxx::ds::OStream out("x");
      out << 1;
      out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, PaperAliasesAreRecognized) {
  EXPECT_EQ(idsOf(R"(
    void f() {
      oStream out("x");
      out.close();
    }
  )"), (std::vector<std::string>{"DS107"}));
}

TEST(ProtocolTest, DoubleCloseIsReported) {
  EXPECT_EQ(idsOf(R"(
    void f() {
      ds::OStream out("x");
      out << 1; out.write();
      out.close();
      out.close();
    }
  )"), (std::vector<std::string>{"DS104"}));
}

TEST(ProtocolTest, AtEndAfterCloseIsLegalButOtherQueriesAreNot) {
  // The runtime answers atEnd() on a closed stream (true), so the table
  // makes it legal; other members after close stay DS105.
  EXPECT_TRUE(idsOf(R"(
    void f() {
      ds::IStream in("x");
      in.close();
      bool done = in.atEnd();
    }
  )").empty());
  EXPECT_EQ(idsOf(R"(
    void f() {
      ds::IStream in("x");
      in.close();
      bool has = in.hasRecord();
    }
  )"), (std::vector<std::string>{"DS105"}));
}

TEST(ProtocolTest, InputOnlyMembersOnAnOutputStreamAreDirectionErrors) {
  // project() and atEnd() are IStream members, per the protocol table.
  EXPECT_EQ(idsOf(R"(
    void f() {
      ds::OStream out("x");
      out << 1; out.write();
      bool done = out.atEnd();
      out.project(fields);
      out.close();
    }
  )"), (std::vector<std::string>{"DS101", "DS101"}));
}

TEST(ProtocolTest, BranchWithInsertInBothArmsIsClean) {
  EXPECT_TRUE(idsOf(R"(
    void f(bool b) {
      ds::OStream out("x");
      if (b) { out << 1; } else { out << 2; }
      out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, MayErrorAfterJoinIsNotReported) {
  // Only one arm inserts: write() may be an error, but is not a MUST
  // error, so the conservative analysis stays quiet.
  EXPECT_TRUE(idsOf(R"(
    void f(bool b) {
      ds::OStream out("x");
      if (b) { out << 1; }
      out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, MustErrorAfterJoinIsReported) {
  // Neither arm inserts: every state reaching write() is empty.
  EXPECT_EQ(idsOf(R"(
    void f(bool b) {
      ds::OStream out("x");
      if (b) { int k = 0; (void)k; } else { int j = 1; (void)j; }
      out.write();
      out.close();
    }
  )"), (std::vector<std::string>{"DS102"}));
}

TEST(ProtocolTest, CloseInOneArmThenUseIsNotMustError) {
  // The stream may still be open on the else path; stays quiet.
  EXPECT_TRUE(idsOf(R"(
    void f(bool b) {
      ds::OStream out("x");
      out << 1; out.write();
      if (b) { out.close(); return; }
      out << 2; out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, LoopBodyJoinsWithZeroTripPath) {
  // A write inside the loop means the close may see zero records; DS107
  // must NOT fire (the loop may run), and neither must DS102.
  EXPECT_TRUE(idsOf(R"(
    void f(int n) {
      ds::OStream out("x");
      for (int i = 0; i < n; ++i) { out << i; out.write(); }
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, PipelineLoopWithSkipAndContinueIsClean) {
  // The shape of examples/pipeline_analysis.cpp: skipRecord + continue.
  EXPECT_TRUE(idsOf(R"(
    void f() {
      ds::IStream in("x");
      while (!in.atEnd()) {
        if (in.frame() % 2) { in.skipRecord(); continue; }
        in.read();
        double v; in >> v;
      }
      in.close();
    }
  )").empty());
}

TEST(ProtocolTest, SortedUnsortedBranchBothLoadARecord) {
  // The shape of scf::IoMethods: both arms select a record before >>.
  EXPECT_TRUE(idsOf(R"(
    void f(bool sorted) {
      ds::IStream in("x");
      if (sorted) in.read(); else in.unsortedRead();
      int v; in >> v;
      in.close();
    }
  )").empty());
}

TEST(ProtocolTest, LambdaBodiesAreAnalyzedInline) {
  // All example client code runs inside machine.run([&](rt::Node&){...}).
  EXPECT_EQ(idsOf(R"(
    void f(rt::Machine& machine) {
      machine.run([&](rt::Node& node) {
        ds::OStream out("x");
        out << 1; out.write();
        out.close();
        out.close();
      });
    }
  )"), (std::vector<std::string>{"DS104"}));
}

TEST(ProtocolTest, EscapedStreamIsNotDiagnosed) {
  // Passing the stream to unknown code by reference ends tracking.
  EXPECT_TRUE(idsOf(R"(
    void f() {
      ds::OStream out("x");
      helper(out);
      out.close();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, UnknownMethodIsABenignUse) {
  // Method calls the FSM does not know (atEnd(), frames(), ...) leave the
  // state unchanged; tracking continues and later bugs are still caught.
  EXPECT_EQ(idsOf(R"(
    void f() {
      ds::OStream out("x");
      out.exotic();
      out.close();
      out.close();
    }
  )"), (std::vector<std::string>{"DS107", "DS104"}));
}

TEST(ProtocolTest, DeadPathAfterReturnDoesNotPolluteJoin) {
  EXPECT_TRUE(idsOf(R"(
    int f(bool bad) {
      ds::OStream out("x");
      if (bad) { return 1; }
      out << 1; out.write();
      out.close();
      return 0;
    }
  )").empty());
}

TEST(ProtocolTest, EndOfScopeDiscardsPendingInserts) {
  EXPECT_EQ(idsOf(R"(
    void f() {
      {
        ds::OStream out("x");
        out << 1;
      }
    }
  )"), (std::vector<std::string>{"DS106"}));
}

TEST(ProtocolTest, RewindResetsTheRecordCursor) {
  EXPECT_EQ(idsOf(R"(
    void f() {
      ds::IStream in("x");
      in.read();
      int v; in >> v;
      in.rewind();
      in >> v;
      in.close();
    }
  )"), (std::vector<std::string>{"DS103"}));
}

TEST(ProtocolTest, OtherTypesNamedLikeStreamsAreIgnored) {
  // std::ifstream is not a d/stream; no protocol applies.
  EXPECT_TRUE(idsOf(R"(
    void f() {
      std::ifstream in("x");
      in.close();
      in.close();
    }
  )").empty());
}

TEST(ProtocolTest, InterleaveConflictRequiresKnownLayouts) {
  // A non-trivial ctor argument (&layout.distribution()) makes the layout
  // unknown: no D4 diagnostics, conservative silence.
  EXPECT_TRUE(idsOf(R"(
    void f(Layout& layout, rt::Align& a) {
      coll::Collection<double> g(&layout.distribution(), &a);
      coll::Collection<double> h(&layout.distribution(), &a);
      ds::OStream out("x");
      out << g; out << h;
      out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, InterleaveConflictWithKnownLayouts) {
  EXPECT_EQ(idsOf(R"(
    void f(rt::Dist& d1, rt::Dist& d2, rt::Align& a) {
      coll::Collection<double> g(&d1, &a);
      coll::Collection<double> h(&d2, &a);
      ds::OStream out("x");
      out << g; out << h;
      out.write();
      out.close();
    }
  )"), (std::vector<std::string>{"DS401"}));
}

TEST(ProtocolTest, WriteClearsInterleaveWindow) {
  // Different layouts in different records are fine.
  EXPECT_TRUE(idsOf(R"(
    void f(rt::Dist& d1, rt::Dist& d2, rt::Align& a) {
      coll::Collection<double> g(&d1, &a);
      coll::Collection<double> h(&d2, &a);
      ds::OStream out("x");
      out << g; out.write();
      out << h; out.write();
      out.close();
    }
  )").empty());
}

TEST(ProtocolTest, SalvageReadLoopViaOptionsVariableIsClean) {
  // The canonical salvage loop: read() may consume damage and land at end
  // of file with no record, so the body bails on !hasRecord() before
  // extracting. The analyzer must not flag the extraction.
  EXPECT_TRUE(idsOf(R"(
    void f(pfs::Pfs& fs, coll::Dist& d, coll::Collection<double>& g) {
      ds::StreamOptions so;
      so.salvage = true;
      ds::IStream in(fs, &d, "x", so);
      while (!in.atEnd()) {
        in.read();
        if (!in.hasRecord()) break;
        in >> g;
      }
      in.close();
    }
  )").empty());
}

TEST(ProtocolTest, SalvageReadLoopViaInlineOptionsIsClean) {
  EXPECT_TRUE(idsOf(R"(
    void f(pfs::Pfs& fs, coll::Dist& d, coll::Collection<double>& g) {
      ds::IStream in(fs, &d, "x", ds::StreamOptions{.salvage = true});
      in.read();
      in >> g;
      in.close();
    }
  )").empty());
}

TEST(ProtocolTest, SalvageDoesNotExcuseExtractBeforeAnyRead) {
  // Salvage relaxes the state only *after* a read; an extraction with no
  // read at all is still a definite DS103.
  EXPECT_EQ(idsOf(R"(
    void f(pfs::Pfs& fs, coll::Dist& d, coll::Collection<double>& g) {
      ds::StreamOptions so;
      so.salvage = true;
      ds::IStream in(fs, &d, "x", so);
      in >> g;
      in.close();
    }
  )"), (std::vector<std::string>{"DS103"}));
}

}  // namespace
