// Unit and property tests for the common substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/frame.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time.h"
#include "common/units.h"

namespace coic {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kDataLoss, "frame truncated");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "frame truncated");
  EXPECT_EQ(s.ToString(), "kDataLoss: frame truncated");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status(), Status::Ok());
  EXPECT_EQ(Status(StatusCode::kTimeout, "x"), Status(StatusCode::kTimeout, "x"));
  EXPECT_NE(Status(StatusCode::kTimeout, "x"), Status(StatusCode::kTimeout, "y"));
  EXPECT_NE(Status(StatusCode::kTimeout, "x"), Status(StatusCode::kInternal, "x"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status(StatusCode::kNotFound, "nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ---------------------------------------------------------------------------
// Time / Units
// ---------------------------------------------------------------------------

TEST(DurationTest, ConstructionAndConversion) {
  EXPECT_EQ(Duration::Millis(3).micros(), 3000);
  EXPECT_EQ(Duration::Seconds(0.5).micros(), 500'000);
  EXPECT_DOUBLE_EQ(Duration::Micros(1500).millis(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::Millis(2500).seconds(), 2.5);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::Millis(10);
  const Duration b = Duration::Millis(4);
  EXPECT_EQ((a + b).micros(), 14'000);
  EXPECT_EQ((a - b).micros(), 6'000);
  EXPECT_EQ((a * 3).micros(), 30'000);
  EXPECT_EQ((3 * a).micros(), 30'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(Duration::Zero().micros(), 0);
}

TEST(SimTimeTest, AffineArithmetic) {
  const SimTime t0 = SimTime::Epoch();
  const SimTime t1 = t0 + Duration::Millis(5);
  EXPECT_EQ((t1 - t0).micros(), 5000);
  EXPECT_EQ((t1 - Duration::Millis(5)), t0);
  EXPECT_GT(t1, t0);
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Micros(12).ToString(), "12 us");
  EXPECT_EQ(Duration::Millis(3).ToString(), "3.000 ms");
  EXPECT_EQ(Duration::Seconds(2).ToString(), "2.000 s");
}

TEST(BandwidthTest, TransmitTimeMatchesArithmetic) {
  // 1 MB at 8 Mbps = exactly 1 second.
  EXPECT_EQ(Bandwidth::Mbps(8).TransmitTime(1'000'000).micros(), 1'000'000);
  // 1500 bytes at 100 Mbps = 120 us.
  EXPECT_EQ(Bandwidth::Mbps(100).TransmitTime(1500).micros(), 120);
}

TEST(BandwidthTest, TransmitTimeRoundsUp) {
  // 1 byte at 1 Gbps = 8 ns -> rounds up to 1 us, never 0.
  EXPECT_EQ(Bandwidth::Gbps(1).TransmitTime(1).micros(), 1);
  EXPECT_EQ(Bandwidth::Gbps(1).TransmitTime(0).micros(), 0);
}

TEST(UnitsTest, ByteHelpers) {
  EXPECT_EQ(KiB(2), 2048u);
  EXPECT_EQ(MiB(1), 1048576u);
  EXPECT_EQ(KB(231), 231'000u);
  EXPECT_EQ(MB(2), 2'000'000u);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(KB(231)), "231.0 KB");
  EXPECT_EQ(FormatBytes(MB(2)), "2.00 MB");
}

// ---------------------------------------------------------------------------
// Rng / Zipf
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(7), 7u);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(14);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextExponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfDistribution zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-12);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(50, 0.9);
  double sum = 0;
  for (std::size_t k = 0; k < 50; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PopularRanksDominate) {
  ZipfDistribution zipf(100, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(10));
  EXPECT_GT(zipf.Pmf(10), zipf.Pmf(99));
}

TEST(ZipfTest, SampleHistogramTracksPmf) {
  ZipfDistribution zipf(20, 1.2);
  Rng rng(16);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (std::size_t k : {0u, 1u, 5u}) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.Pmf(k), 0.01)
        << "rank " << k;
  }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, ContentDigestDeterministic) {
  const ByteVec data = DeterministicBytes(1024, 42);
  EXPECT_EQ(ContentDigest(data), ContentDigest(data));
}

TEST(HashTest, ContentDigestSensitiveToEveryByte) {
  ByteVec data = DeterministicBytes(256, 43);
  const Digest128 base = ContentDigest(data);
  for (std::size_t i = 0; i < data.size(); i += 37) {
    ByteVec mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(ContentDigest(mutated), base) << "byte " << i;
  }
}

TEST(HashTest, ContentDigestLengthSensitive) {
  const ByteVec a = DeterministicBytes(100, 44);
  ByteVec b = a;
  b.push_back(0);
  EXPECT_NE(ContentDigest(a), ContentDigest(b));
  // Zero-extension must also change the digest (prefix attack).
  ByteVec c(a.begin(), a.end() - 1);
  EXPECT_NE(ContentDigest(a), ContentDigest(c));
}

TEST(HashTest, ContentDigestPinned) {
  // Every cache key and model digest derives from ContentDigest, so its
  // bytes are part of every pinned outcome. Values captured from the
  // two-pass implementation; any rewrite must reproduce them.
  struct Pin {
    std::size_t size;
    Digest128 digest;
  };
  const Pin pins[] = {
      {0, {0xf52a15e9a9b5e89bull, 0x420b15f54ee3b2b4ull}},
      {1, {0xda34a0a96f35f134ull, 0xb7ab286dbae98d4full}},
      {7, {0x69b331d3331e31c2ull, 0x54302136c2beaf30ull}},
      {4096, {0xdaa35d0e5ceb8698ull, 0xae0ec53e94951433ull}},
      {470 * 1024, {0x332c5e89e1cabcedull, 0x8d55e671c5a1a75aull}},
  };
  for (const Pin& pin : pins) {
    const ByteVec data = DeterministicBytes(pin.size, 0x5EED + pin.size);
    EXPECT_EQ(ContentDigest(data), pin.digest) << pin.size << " bytes";
  }
}

TEST(HashTest, DigestHexIs32Chars) {
  const Digest128 d{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(d.ToHex(), "0123456789abcdeffedcba9876543210");
}

TEST(HashTest, NoCollisionsAcrossManyBuffers) {
  std::unordered_set<std::string> seen;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    seen.insert(ContentDigest(DeterministicBytes(64, i)).ToHex());
  }
  EXPECT_EQ(seen.size(), 2000u);
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI64(-42);
  w.WriteF32(3.5f);
  w.WriteF64(-2.25);

  ByteReader r(w.bytes());
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  float f32;
  double f64;
  ASSERT_TRUE(r.ReadU8(u8).ok());
  ASSERT_TRUE(r.ReadU16(u16).ok());
  ASSERT_TRUE(r.ReadU32(u32).ok());
  ASSERT_TRUE(r.ReadU64(u64).ok());
  ASSERT_TRUE(r.ReadI64(i64).ok());
  ASSERT_TRUE(r.ReadF32(f32).ok());
  ASSERT_TRUE(r.ReadF64(f64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 3.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BlobStringVectorRoundTrip) {
  ByteWriter w;
  const ByteVec blob = {1, 2, 3, 4, 5};
  const std::vector<float> vec = {0.5f, -1.5f, 2.0f};
  w.WriteBlob(blob);
  w.WriteString("hello");
  w.WriteF32Vector(vec);

  ByteReader r(w.bytes());
  ByteVec blob_out;
  std::string str_out;
  std::vector<float> vec_out;
  ASSERT_TRUE(r.ReadBlob(blob_out).ok());
  ASSERT_TRUE(r.ReadString(str_out).ok());
  ASSERT_TRUE(r.ReadF32Vector(vec_out).ok());
  EXPECT_EQ(blob_out, blob);
  EXPECT_EQ(str_out, "hello");
  EXPECT_EQ(vec_out, vec);
}

TEST(BytesTest, TruncatedReadsFailWithDataLoss) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.bytes());
  std::uint32_t u32;
  EXPECT_EQ(r.ReadU32(u32).code(), StatusCode::kDataLoss);
}

TEST(BytesTest, BlobLengthBeyondBufferFailsAndRestoresCursor) {
  ByteWriter w;
  w.WriteU32(1000);  // claims 1000 bytes; none follow
  ByteReader r(w.bytes());
  ByteVec out;
  EXPECT_EQ(r.ReadBlob(out).code(), StatusCode::kDataLoss);
  // Cursor restored: the length field is still readable.
  std::uint32_t len;
  ASSERT_TRUE(r.ReadU32(len).ok());
  EXPECT_EQ(len, 1000u);
}

TEST(BytesTest, SkipAndReadBytes) {
  ByteWriter w;
  w.WriteU32(0x11111111);
  w.WriteU32(0x22222222);
  ByteReader r(w.bytes());
  ASSERT_TRUE(r.Skip(4).ok());
  ByteVec raw;
  ASSERT_TRUE(r.ReadBytes(raw, 4).ok());
  EXPECT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw[0], 0x22);
  EXPECT_FALSE(r.Skip(1).ok());
}

TEST(BytesTest, DeterministicBytesStableAndSeedSensitive) {
  EXPECT_EQ(DeterministicBytes(100, 5), DeterministicBytes(100, 5));
  EXPECT_NE(DeterministicBytes(100, 5), DeterministicBytes(100, 6));
  EXPECT_EQ(DeterministicBytes(0, 5).size(), 0u);
  EXPECT_EQ(DeterministicBytes(13, 5).size(), 13u);  // non-multiple of 8
}

// Property: write/read round trip over random scalar sequences.
class BytesPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytesPropertyTest, RandomSequenceRoundTrips) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = rng.NextU64();
    values.push_back(v);
    w.WriteU64(v);
  }
  ByteReader r(w.bytes());
  for (const std::uint64_t expected : values) {
    std::uint64_t got;
    ASSERT_TRUE(r.ReadU64(got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(OnlineStatsTest, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-6);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStatsTest, MergeEqualsConcatenation) {
  Rng rng(21);
  OnlineStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian() * 3 + 1;
    all.Add(x);
    (i % 2 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleTest, ExactPercentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleTest, SingleElement) {
  Sample s;
  s.Add(7.0);
  EXPECT_EQ(s.Percentile(0), 7.0);
  EXPECT_EQ(s.Percentile(50), 7.0);
  EXPECT_EQ(s.Percentile(100), 7.0);
}

TEST(SampleTest, PercentileAfterIncrementalAdds) {
  Sample s;
  s.Add(10);
  EXPECT_EQ(s.median(), 10);
  s.Add(20);  // re-sorts lazily
  s.Add(0);
  EXPECT_EQ(s.median(), 10);
}

TEST(LatencyHistogramTest, QuantilesApproximateTruth) {
  LatencyHistogram h;
  Rng rng(22);
  std::vector<double> truth;
  for (int i = 0; i < 20000; ++i) {
    const auto us = static_cast<std::int64_t>(rng.NextExponential(1e-4));
    h.AddMicros(us);
    truth.push_back(static_cast<double>(us));
  }
  std::sort(truth.begin(), truth.end());
  const double p50_true = truth[truth.size() / 2];
  const double p50_est = h.QuantileMicros(0.5);
  // Bucket width is sqrt(2): the estimate must be within a factor ~1.5.
  EXPECT_GT(p50_est, p50_true / 1.6);
  EXPECT_LT(p50_est, p50_true * 1.6);
  EXPECT_EQ(h.count(), 20000u);
}

TEST(LatencyHistogramTest, ConstantPhaseReportsItsTrueValue) {
  // A constant 2.000 ms phase (the uplink of an unloaded link). The old
  // sqrt(2) buckets read it as 1.748 ms at every quantile.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.AddMicros(2000);
  EXPECT_NEAR(h.QuantileMicros(0.5), 2000.0, 20.0);
  EXPECT_NEAR(h.QuantileMicros(0.99), 2000.0, 20.0);
}

TEST(LatencyHistogramTest, EveryQuantileWithinOnePercentOfItsRankedSample) {
  // Values spread over nine decades, including the exactly-counted
  // range below 128 us and every octave boundary region above it.
  LatencyHistogram h;
  Rng rng(7);
  std::vector<std::int64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    const double exponent = rng.NextDouble() * 9.0;
    const auto us = static_cast<std::int64_t>(std::pow(10.0, exponent));
    h.AddMicros(us);
    truth.push_back(us);
  }
  std::sort(truth.begin(), truth.end());
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
                         1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(truth.size() - 1));
    const double want = static_cast<double>(truth[rank]);
    EXPECT_LE(std::abs(h.QuantileMicros(q) - want), 0.01 * want)
        << "q=" << q << " want " << want;
  }
  // Single-bucket exactness below 128 us, and the mean stays exact.
  LatencyHistogram small;
  small.AddMicros(3);
  small.AddMicros(100);
  small.AddMicros(127);
  EXPECT_EQ(small.QuantileMicros(0.0), 3.0);
  EXPECT_EQ(small.QuantileMicros(0.5), 100.0);
  EXPECT_EQ(small.QuantileMicros(1.0), 127.0);
  EXPECT_DOUBLE_EQ(small.MeanMicros(), 230.0 / 3.0);
}

TEST(LatencyHistogramTest, ToStringListsNonEmptyBuckets) {
  LatencyHistogram h;
  h.AddMicros(10);
  h.AddMicros(10000);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_FALSE(s.empty());
}

// ---------------------------------------------------------------------------
// Frame — the refcounted zero-copy buffer every layer ships.
// ---------------------------------------------------------------------------

TEST(FrameTest, OwnAdoptsWithoutCopying) {
  const std::uint64_t copies_before = frame_stats().copies();
  ByteVec bytes = DeterministicBytes(1024, 1);
  const ByteVec expected = bytes;
  const Frame frame = Frame::Own(std::move(bytes));
  EXPECT_EQ(frame.size(), 1024u);
  EXPECT_EQ(frame.CloneBytes(), expected);
  // Own() is free; only the explicit CloneBytes above counted.
  EXPECT_EQ(frame_stats().copies(), copies_before + 1);
}

TEST(FrameTest, CopyingAFrameSharesTheBuffer) {
  const Frame a(DeterministicBytes(256, 2));
  EXPECT_EQ(a.use_count(), 1);
  const Frame b = a;
  const Frame c = b;
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_TRUE(b.SharesBufferWith(a));
  EXPECT_TRUE(c.SharesBufferWith(a));
  EXPECT_EQ(b.data(), a.data());
}

TEST(FrameTest, SliceSharesAndViewsTheWindow) {
  const ByteVec bytes = DeterministicBytes(100, 3);
  const Frame frame = Frame::Own(ByteVec(bytes));
  const Frame slice = frame.Slice(20, 30);
  EXPECT_TRUE(slice.SharesBufferWith(frame));
  EXPECT_EQ(slice.size(), 30u);
  EXPECT_EQ(slice.CloneBytes(),
            ByteVec(bytes.begin() + 20, bytes.begin() + 50));
  // Slices of slices compose.
  const Frame inner = slice.Slice(5, 10);
  EXPECT_EQ(inner.CloneBytes(),
            ByteVec(bytes.begin() + 25, bytes.begin() + 35));
}

TEST(FrameTest, SliceOfRecoversASubSpanAsASharedFrame) {
  const Frame frame(DeterministicBytes(64, 4));
  const auto sub = frame.span().subspan(8, 16);
  const Frame sliced = frame.SliceOf(sub);
  EXPECT_TRUE(sliced.SharesBufferWith(frame));
  EXPECT_EQ(sliced.data(), sub.data());
  EXPECT_EQ(sliced.size(), sub.size());
}

TEST(FrameTest, ExplicitCopiesAreCounted) {
  const std::uint64_t copies_before = frame_stats().copies();
  const std::uint64_t bytes_before = frame_stats().bytes_copied();
  const ByteVec bytes = DeterministicBytes(500, 5);
  const Frame copied = Frame::Copy(bytes);
  EXPECT_FALSE(copied.SharesBufferWith(Frame()));
  EXPECT_EQ(frame_stats().copies(), copies_before + 1);
  EXPECT_EQ(frame_stats().bytes_copied(), bytes_before + 500);
  (void)copied.CloneBytes();
  EXPECT_EQ(frame_stats().copies(), copies_before + 2);
  EXPECT_EQ(frame_stats().bytes_copied(), bytes_before + 1000);
}

TEST(FrameTest, MutableSpanPatchesInPlaceWhenUniquelyHeld) {
  const std::uint64_t copies_before = frame_stats().copies();
  Frame frame(ByteVec{1, 2, 3, 4});
  const auto* data_before = frame.data();
  frame.MutableSpan()[2] = 99;
  EXPECT_EQ(frame.data(), data_before);  // no reallocation
  EXPECT_EQ(frame.CloneBytes(), (ByteVec{1, 2, 99, 4}));
  // The in-place patch cost zero counted copies (CloneBytes above is 1).
  EXPECT_EQ(frame_stats().copies(), copies_before + 1);
}

TEST(FrameTest, MutableSpanCopiesOnWriteWhenShared) {
  Frame original(ByteVec{1, 2, 3, 4});
  Frame shared = original;
  const std::uint64_t copies_before = frame_stats().copies();
  shared.MutableSpan()[0] = 77;
  // The mutation forced a counted copy, and the other holder never sees
  // it.
  EXPECT_EQ(frame_stats().copies(), copies_before + 1);
  EXPECT_FALSE(shared.SharesBufferWith(original));
  EXPECT_EQ(original.span()[0], 1);
  EXPECT_EQ(shared.span()[0], 77);
  EXPECT_EQ(original.use_count(), 1);
}

TEST(FrameTest, EmptyFrameBehaves) {
  const Frame empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.span().empty());
}

}  // namespace
}  // namespace coic
