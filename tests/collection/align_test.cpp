// Tests for HPF-style alignment, including the pC++ spec-string parser.
#include <gtest/gtest.h>

#include "src/collection/align.h"
#include "src/util/error.h"

namespace {

using namespace pcxx;
using namespace pcxx::coll;

TEST(Align, IdentityDefault) {
  Align a(12);
  EXPECT_TRUE(a.identity());
  EXPECT_EQ(a.map(5), 5);
  EXPECT_EQ(a.size(), 12);
}

TEST(Align, AffineMapping) {
  Align a(6, /*stride=*/2, /*offset=*/1);
  EXPECT_FALSE(a.identity());
  EXPECT_EQ(a.map(0), 1);
  EXPECT_EQ(a.map(5), 11);
}

TEST(Align, ZeroStrideRejected) {
  EXPECT_THROW(Align(6, 0, 0), UsageError);
  EXPECT_THROW(Align(-1, 1, 0), UsageError);
}

struct SpecCase {
  const char* spec;
  std::int64_t stride;
  std::int64_t offset;
};

// Print the spec text rather than the raw bytes (which include the
// literal's address), so test names stay the same from run to run.
void PrintTo(const SpecCase& c, std::ostream* os) { *os << c.spec; }

class AlignSpecTest : public ::testing::TestWithParam<SpecCase> {};

TEST_P(AlignSpecTest, ParsesPaperSyntax) {
  const auto& c = GetParam();
  Align a(12, std::string(c.spec));
  EXPECT_EQ(a.stride(), c.stride) << c.spec;
  EXPECT_EQ(a.offset(), c.offset) << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Specs, AlignSpecTest,
    ::testing::Values(
        SpecCase{"[ALIGN(dummy[i], d[i])]", 1, 0},           // Figure 3
        SpecCase{"[ALIGN(x[i], d[2*i])]", 2, 0},
        SpecCase{"[ALIGN(x[i], d[i+3])]", 1, 3},
        SpecCase{"[ALIGN(x[i], d[i-1])]", 1, -1},
        SpecCase{"[ALIGN(x[i], d[2*i+1])]", 2, 1},
        SpecCase{"[ALIGN(x[i], d[3*i-2])]", 3, -2},
        SpecCase{"[ALIGN( x[i] , d[ 2 * i + 1 ] )]", 2, 1},  // spaces
        SpecCase{"[ALIGN(x[i], d[-1*i+11])]", -1, 11}));     // reversal

TEST(AlignSpec, MalformedSpecsThrow) {
  EXPECT_THROW(Align(4, std::string("[NOPE(x[i], d[i])]")), UsageError);
  EXPECT_THROW(Align(4, std::string("[ALIGN(x[i])]")), UsageError);
  EXPECT_THROW(Align(4, std::string("[ALIGN(x[i], d[j])]")), UsageError);
  EXPECT_THROW(Align(4, std::string("[ALIGN(x[i], d[2i])]")), UsageError);
  EXPECT_THROW(Align(4, std::string("[ALIGN(x[i], d[0*i])]")), UsageError);
}

TEST(Align, EncodeDecodeRoundTrip) {
  Align a(42, -3, 7);
  ByteBuffer buf;
  ByteWriter w(buf);
  a.encode(w);
  ByteReader r(buf);
  const Align b = Align::decode(r);
  EXPECT_EQ(a, b);
}

TEST(Align, DecodeRejectsZeroStride) {
  ByteBuffer buf;
  ByteWriter w(buf);
  w.i64(4);
  w.i64(0);  // stride
  w.i64(0);
  ByteReader r(buf);
  EXPECT_THROW(Align::decode(r), FormatError);
}

TEST(Align, EqualityComparesAllComponents) {
  EXPECT_EQ(Align(4, 1, 0), Align(4, 1, 0));
  EXPECT_NE(Align(4, 1, 0), Align(5, 1, 0));
  EXPECT_NE(Align(4, 1, 0), Align(4, 2, 0));
  EXPECT_NE(Align(4, 1, 0), Align(4, 1, 2));
}

}  // namespace
