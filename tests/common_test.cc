// Tests for the common runtime: status/result types, byte helpers,
// calibrated cycle counting, and the workload PRNGs.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/cycles.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace shield {
namespace {

// ---------------------------------------------------------------- status

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().code(), Code::kOk);
  const Status s(Code::kNotFound, "missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.message(), "missing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing");
  EXPECT_EQ(Status(Code::kIntegrityFailure).ToString(), "INTEGRITY_FAILURE");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= kMaxWireStatus; ++c) {
    EXPECT_NE(CodeName(static_cast<Code>(c)), "UNKNOWN") << c;
  }
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err = Status(Code::kIoError, "disk");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Code::kIoError);
  Result<std::string> moved = std::string("payload");
  EXPECT_EQ(std::move(moved).value(), "payload");
}

TEST(ResultTest, CodeConstructor) {
  Result<int> err = Code::kCapacityExceeded;
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Code::kCapacityExceeded);
}

// ----------------------------------------------------------------- bytes

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(data), "0001abff");
  EXPECT_EQ(HexDecode("0001abff"), data);
  EXPECT_EQ(HexDecode("0001ABFF"), data);
  EXPECT_TRUE(HexDecode("abc").empty());   // odd length
  EXPECT_TRUE(HexDecode("zz").empty());    // non-hex
  EXPECT_TRUE(HexDecode("").empty());
}

TEST(BytesTest, StringViews) {
  const std::string s = "hello";
  const ByteSpan span = AsBytes(s);
  EXPECT_EQ(span.size(), 5u);
  EXPECT_EQ(AsString(span), "hello");
  EXPECT_EQ(ToBytes("ab"), (Bytes{'a', 'b'}));
}

TEST(BytesTest, EndianHelpers) {
  uint8_t buf[8];
  StoreLe32(buf, 0x12345678);
  EXPECT_EQ(LoadLe32(buf), 0x12345678u);
  StoreLe64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadLe64(buf), 0x0123456789ABCDEFull);
  StoreBe32(buf, 0x12345678);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[3], 0x78);
  EXPECT_EQ(LoadBe32(buf), 0x12345678u);
  StoreBe64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadBe64(buf), 0x0123456789ABCDEFull);
}

TEST(BytesTest, ConstantTimeEqualEdges) {
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
  const Bytes a = {1, 2, 3};
  EXPECT_FALSE(ConstantTimeEqual(a, ByteSpan(a.data(), 2)));
}

// ---------------------------------------------------------------- cycles

TEST(CyclesTest, CounterAdvances) {
  const uint64_t a = ReadCycleCounter();
  const uint64_t b = ReadCycleCounter();
  EXPECT_GE(b, a);
}

TEST(CyclesTest, CalibrationIsPositiveAndStable) {
  const double r1 = CyclesPerNanosecond();
  const double r2 = CyclesPerNanosecond();
  EXPECT_GT(r1, 0.0);
  EXPECT_EQ(r1, r2);  // computed once
}

TEST(CyclesTest, SpinBurnsApproximatelyRequestedCycles) {
  const uint64_t want = 2'000'000;
  const uint64_t t0 = ReadCycleCounter();
  SpinCycles(want);
  const uint64_t burned = ReadCycleCounter() - t0;
  EXPECT_GE(burned, want);
  EXPECT_LT(burned, want * 3);  // generous: scheduler noise on shared CPUs
  SpinCycles(0);                // no-op must not hang
}

// ------------------------------------------------------------------- rng

TEST(RngTest, SplitMixDeterministic) {
  SplitMix64 a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  SplitMix64 a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, XoshiroBoundsAndDistribution) {
  Xoshiro256 rng(99);
  std::set<uint64_t> seen;
  size_t buckets[10] = {};
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    buckets[v]++;
    seen.insert(rng.Next());
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
  EXPECT_GT(seen.size(), 99'990u);  // essentially no collisions
  for (size_t b : buckets) {
    EXPECT_GT(b, 9'000u);
    EXPECT_LT(b, 11'000u);
  }
}

// --------------------------------------------------------------- logging

TEST(LoggingTest, LevelGate) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  SHIELD_LOG(Info) << "suppressed";  // must not crash; writes nothing
  SHIELD_LOG(Error) << "visible";
  SetLogLevel(old_level);
  SUCCEED();
}

}  // namespace
}  // namespace shield
