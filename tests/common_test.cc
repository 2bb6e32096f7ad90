#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace pitree {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::Busy("").IsBusy());
  EXPECT_TRUE(Status::Deadlock("").IsDeadlock());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::NoSpace("").IsNoSpace());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::Busy("latched"); };
  auto outer = [&]() -> Status {
    PITREE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsBusy());
}

TEST(SliceTest, CompareIsLexicographicUnsigned) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix orders before extension.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  // High bytes compare as unsigned.
  char hi[] = {static_cast<char>(0xff)};
  EXPECT_GT(Slice(hi, 1).compare(Slice("a")), 0);
}

TEST(SliceTest, OperatorsAndAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("hel"));
  EXPECT_FALSE(s.starts_with("help"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
  EXPECT_TRUE(Slice("") == Slice());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsTruncation) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "key");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "key");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, LengthPrefixedSliceRejectsShortPayload) {
  std::string buf;
  PutVarint32(&buf, 100);
  buf += "short";
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &out));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // RFC 3720 (iSCSI) appendix B.4 vectors, through the dispatching entry
  // point and the portable table alike.
  char zeros[32], ones[32], up[32], down[32];
  for (int i = 0; i < 32; ++i) {
    zeros[i] = 0;
    ones[i] = static_cast<char>(0xff);
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  const struct {
    const char* data;
    uint32_t crc;
  } kVectors[] = {{zeros, 0x8A9136AAu},
                  {ones, 0x62A8AB43u},
                  {up, 0x46DD794Eu},
                  {down, 0x113FDB5Cu}};
  for (const auto& v : kVectors) {
    EXPECT_EQ(Crc32c(v.data, 32), v.crc);
    EXPECT_EQ(crc32c_internal::ExtendPortable(0, v.data, 32), v.crc);
  }
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const char* data = "hello world, this is a crc test";
  size_t n = strlen(data);
  uint32_t one = Crc32c(data, n);
  uint32_t two = Crc32cExtend(Crc32c(data, 10), data + 10, n - 10);
  EXPECT_EQ(one, two);
}

// The crc32-instruction path must be bit-identical to the table for every
// length (word loop plus byte tail) at every alignment, and chain the same.
TEST(Crc32Test, HardwareMatchesTable) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  std::string buf(8 + 300, '\0');
  Random rnd(7);
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = buf.data() + start;
      ASSERT_EQ(crc32c_internal::ExtendHardware(0, p, len),
                crc32c_internal::ExtendPortable(0, p, len))
          << "start " << start << " len " << len;
    }
  }
  // Extend chaining: any split of the input gives the one-shot value, and
  // a running CRC from one implementation continues in the other.
  const char* p = buf.data();
  const uint32_t whole = crc32c_internal::ExtendPortable(0, p, 300);
  for (size_t cut = 0; cut <= 300; cut += 13) {
    uint32_t hw = crc32c_internal::ExtendHardware(0, p, cut);
    EXPECT_EQ(crc32c_internal::ExtendHardware(hw, p + cut, 300 - cut), whole);
    EXPECT_EQ(crc32c_internal::ExtendPortable(hw, p + cut, 300 - cut), whole);
    uint32_t sw = crc32c_internal::ExtendPortable(0, p, cut);
    EXPECT_EQ(crc32c_internal::ExtendHardware(sw, p + cut, 300 - cut), whole);
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32c("abc", 3);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
  }
}

TEST(RandomTest, SkewedInRangeAndSkewed) {
  Random r(7);
  const uint64_t n = 1000;
  int low_half = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = r.Skewed(n);
    ASSERT_LT(v, n);
    if (v < n / 2) ++low_half;
  }
  // A skewed distribution should strongly favor the low half.
  EXPECT_GT(low_half, 7000);
}

}  // namespace
}  // namespace pitree
