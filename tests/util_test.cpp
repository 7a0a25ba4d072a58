// Unit tests for the util module: bytes, rng, crc, stats, time.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/bytes.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace aseck::util {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(b), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001DEADbeefFF"), b);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, Concat) {
  const Bytes a = {1, 2}, b = {3}, c = {};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
}

TEST(Bytes, XorInplace) {
  Bytes a = {0xff, 0x00, 0x55};
  const Bytes b = {0x0f, 0xf0, 0x55};
  xor_inplace(a, b);
  EXPECT_EQ(a, (Bytes{0xf0, 0xf0, 0x00}));
  Bytes short_buf = {1};
  EXPECT_THROW(xor_inplace(short_buf, b), std::invalid_argument);
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 3}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2, 3}, Bytes{1, 2, 4}));
  EXPECT_FALSE(ct_equal(Bytes{1, 2}, Bytes{1, 2, 3}));
  EXPECT_TRUE(ct_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, EndianLoadsStores) {
  std::uint8_t buf[8];
  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ULL);
  store_le64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x08);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ULL);
  store_be32(buf, 0xcafebabe);
  EXPECT_EQ(load_be32(buf), 0xcafebabe);
  store_le32(buf, 0xcafebabe);
  EXPECT_EQ(load_le32(buf), 0xcafebabe);
}

TEST(Bytes, AppendBe) {
  Bytes out;
  append_be(out, 0x1234, 2);
  EXPECT_EQ(out, (Bytes{0x12, 0x34}));
  append_be(out, 0xff, 1);
  EXPECT_EQ(out, (Bytes{0x12, 0x34, 0xff}));
  EXPECT_THROW(append_be(out, 1, 0), std::invalid_argument);
  EXPECT_THROW(append_be(out, 1, 9), std::invalid_argument);
}

TEST(Bytes, HammingHelpers) {
  EXPECT_EQ(hamming_weight(0), 0);
  EXPECT_EQ(hamming_weight(0xff), 8);
  EXPECT_EQ(hamming_distance(0b1010, 0b0101), 4);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.uniform(17), 17u);
  }
  EXPECT_THROW(r.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusive) {
  Rng r(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, Uniform01Range) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, PoissonMean) {
  Rng r(19);
  RunningStats small, large;
  for (int i = 0; i < 50000; ++i) small.add(static_cast<double>(r.poisson(3.0)));
  for (int i = 0; i < 50000; ++i) large.add(static_cast<double>(r.poisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(23), b(23);
  EXPECT_EQ(a.bytes(17).size(), 17u);
  EXPECT_EQ(Rng(23).bytes(33), Rng(23).bytes(33));
  (void)b;
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, ForStreamKnownAnswers) {
  // Pinned vectors: per-shard streams must reproduce these exact draws on
  // every platform and compiler, or previously published sharded-run
  // digests (E19) silently change. Do not update without bumping the
  // experiment digests.
  struct Vec {
    std::uint64_t seed, stream;
    std::uint64_t draws[4];
  };
  const Vec vecs[] = {
      {42, 0,
       {0x5f927cfa1ad326efULL, 0x56b4cc89cfa675eeULL, 0x28ec64234f2f024aULL,
        0x9e3e9091fa2e6aeaULL}},
      {42, 1,
       {0xfb4147ce248ac583ULL, 0x91398bf6117116f2ULL, 0x92845c726e93f14fULL,
        0x7ec80fafc2ab26f5ULL}},
      {42, 2,
       {0x08df30b33e8a8439ULL, 0xce6d98fe7104d8b9ULL, 0x780bb15c7c73d9a8ULL,
        0xa8aa08525691040cULL}},
      {42, 7,
       {0x96f98e76bf2256a3ULL, 0x37b77b2dad3c89d6ULL, 0x2cf90b9b3bd8e608ULL,
        0x6ef29cbb2afc56b0ULL}},
      {0xdeadbeefULL, 1600,
       {0x9a69b2c8e4f5baeeULL, 0x4bd9396606192bf8ULL, 0xe115991cb2d97db9ULL,
        0xd915eeef7af3ccd9ULL}},
  };
  for (const Vec& v : vecs) {
    Rng r = Rng::for_stream(v.seed, v.stream);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(r.next_u64(), v.draws[i])
          << "seed " << v.seed << " stream " << v.stream << " draw " << i;
    }
  }
}

TEST(Rng, ForStreamIsPureFunctionOfSeedAndId) {
  Rng a = Rng::for_stream(42, 3);
  (void)a.next_u64();  // consuming from one instance...
  Rng b = Rng::for_stream(42, 3);  // ...must not affect a fresh derivation
  Rng c = Rng::for_stream(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b.next_u64(), c.next_u64());
}

TEST(Rng, ForStreamAdjacentStreamsDoNotOverlap) {
  // Independence proxy for per-shard streams: the first 10k draws of
  // adjacent stream ids share no value at all. With 64-bit draws a single
  // collision among 30k values has probability ~ 2^-34; any overlap here
  // means the derivation collapsed streams.
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::uint64_t sid : {0ULL, 1ULL, 2ULL}) {
    Rng r = Rng::for_stream(42, sid);
    for (int i = 0; i < 10000; ++i) {
      seen.insert(r.next_u64());
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(Rng, ForStreamDistinctSeedsDiverge) {
  Rng a = Rng::for_stream(1, 0);
  Rng b = Rng::for_stream(2, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Crc, Crc32KnownAnswer) {
  // "123456789" -> 0xCBF43926 (classic check value).
  const Bytes msg = from_string("123456789");
  EXPECT_EQ(crc32_ieee(msg), 0xCBF43926u);
}

TEST(Crc, Crc8J1850KnownAnswer) {
  // SAE J1850 check value for "123456789" is 0x4B.
  EXPECT_EQ(crc8_j1850(from_string("123456789")), 0x4B);
}

TEST(Crc, Crc15DetectsChange) {
  const Bytes a = {0x12, 0x34, 0x56};
  Bytes b = a;
  b[1] ^= 0x01;
  EXPECT_NE(crc15_can(a), crc15_can(b));
  EXPECT_LT(crc15_can(a), 1u << 15);
}

TEST(Crc, CanFdCrcWidths) {
  const Bytes msg = from_string("payload data here");
  EXPECT_LT(crc17_canfd(msg), 1u << 17);
  EXPECT_LT(crc21_canfd(msg), 1u << 21);
  EXPECT_NE(crc17_canfd(msg), crc21_canfd(msg));
}

TEST(Crc, FlexRayCrcWidths) {
  const Bytes msg = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_LT(crc11_flexray(msg), 1u << 11);
  EXPECT_LT(crc24_flexray(msg), 1u << 24);
}

TEST(Crc, CatalogueCheckValues) {
  // Check values for "123456789" from the CRC catalogue.
  const Bytes msg = from_string("123456789");
  EXPECT_EQ(crc15_can(msg), 0x059Eu);
  EXPECT_EQ(crc17_canfd(msg), 0x04F03u);
  EXPECT_EQ(crc21_canfd(msg), 0x0ED841u);
  EXPECT_EQ(crc11_flexray(msg), 0x5A3u);
  EXPECT_EQ(crc24_flexray(msg), 0x7979BDu);
}

/// Bit-serial MSB-first CRC: the reference the table-driven kernels must
/// reproduce bit for bit.
std::uint32_t ref_crc_msb(BytesView data, unsigned width, std::uint32_t poly,
                          std::uint32_t init, std::uint32_t xorout) {
  const std::uint32_t mask = (width == 32) ? 0xffffffffu : ((1u << width) - 1);
  std::uint32_t crc = init;
  for (std::uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      const std::uint32_t in = (byte >> bit) & 1u;
      const std::uint32_t top = (crc >> (width - 1)) & 1u;
      crc = (crc << 1) & mask;
      if (top ^ in) crc ^= poly;
    }
  }
  return (crc ^ xorout) & mask;
}

/// Bit-serial reflected CRC-32 reference.
std::uint32_t ref_crc32(BytesView data) {
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc, TablesMatchBitSerialReference) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    Bytes msg(rng.uniform(301));
    // Style 0: uniform bytes; 1 and 2: long 0x00 or 0xFF runs.
    const std::uint64_t style = rng.uniform(3);
    for (auto& b : msg) {
      if (style == 0 || rng.uniform(8) == 0) {
        b = static_cast<std::uint8_t>(rng.next_u32());
      } else {
        b = style == 1 ? 0x00 : 0xFF;
      }
    }
    SCOPED_TRACE(to_hex(msg));
    EXPECT_EQ(crc15_can(msg), ref_crc_msb(msg, 15, 0x4599, 0, 0));
    EXPECT_EQ(crc17_canfd(msg), ref_crc_msb(msg, 17, 0x3685B, 0, 0));
    EXPECT_EQ(crc21_canfd(msg), ref_crc_msb(msg, 21, 0x302899, 0, 0));
    EXPECT_EQ(crc11_flexray(msg), ref_crc_msb(msg, 11, 0x385, 0x01A, 0));
    EXPECT_EQ(crc24_flexray(msg), ref_crc_msb(msg, 24, 0x5D6DCB, 0xFEDCBA, 0));
    EXPECT_EQ(crc8_j1850(msg), ref_crc_msb(msg, 8, 0x1D, 0xFF, 0xFF));
    EXPECT_EQ(crc32_ieee(msg), ref_crc32(msg));
  }
}

TEST(Crc, Crc32SlicingMatchesBitSerialReference) {
  // crc32_ieee folds eight bytes per step and the rest one at a time: every
  // length 0-300 covers each tail, start offsets 0-7 each alignment, and
  // random lengths up to 64 KiB the long runs a flash page takes.
  Rng rng(18);
  const Bytes buf = rng.bytes(65536 + 8);
  const BytesView all(buf);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      ASSERT_EQ(crc32_ieee(all.subspan(off, len)), ref_crc32(all.subspan(off, len)))
          << "length " << len << " offset " << off;
    }
  }
  for (int i = 0; i < 100; ++i) {
    const BytesView msg = all.subspan(rng.uniform(8), rng.uniform(65536 + 1));
    ASSERT_EQ(crc32_ieee(msg), ref_crc32(msg)) << "length " << msg.size();
  }
  const Bytes check = from_string("123456789");
  for (std::size_t off = 0; off < 8; ++off) {
    Bytes shifted(off, 0xA5);
    shifted.insert(shifted.end(), check.begin(), check.end());
    EXPECT_EQ(crc32_ieee(BytesView(shifted).subspan(off)), 0xCBF43926u) << off;
  }
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsMerge) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.02);
}

TEST(Stats, SamplesAddedAfterAQueryAreOrdered) {
  // Regression: add() left the sorted flag set, so samples added after a
  // query were appended unsorted and min/max/percentile read stale order.
  Samples s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
  s.add(0.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
}

TEST(Stats, Pearson) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
  EXPECT_THROW(pearson(x, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Stats, WelchT) {
  RunningStats a, b;
  Rng r(37);
  for (int i = 0; i < 2000; ++i) {
    a.add(r.gaussian(0.0, 1.0));
    b.add(r.gaussian(1.0, 1.0));
  }
  EXPECT_GT(std::abs(welch_t(a, b)), 4.5);  // clearly distinguishable
  RunningStats c, d;
  for (int i = 0; i < 2000; ++i) {
    c.add(r.gaussian(0.0, 1.0));
    d.add(r.gaussian(0.0, 1.0));
  }
  EXPECT_LT(std::abs(welch_t(c, d)), 4.5);
}

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimTime::from_us(5).ns, 5000u);
  EXPECT_EQ(SimTime::from_ms(2).ns, 2000000u);
  EXPECT_EQ(SimTime::from_s(1).ns, 1000000000u);
  EXPECT_DOUBLE_EQ(SimTime::from_ms(1500).seconds(), 1.5);
  const SimTime a = SimTime::from_us(10), b = SimTime::from_us(3);
  EXPECT_EQ((a + b).ns, 13000u);
  EXPECT_EQ((a - b).ns, 7000u);
  EXPECT_EQ((b * 4).ns, 12000u);
  EXPECT_LT(b, a);
}

TEST(SimTime, Str) {
  EXPECT_EQ(SimTime::from_ns(12).str(), "12ns");
  EXPECT_NE(SimTime::from_ms(3).str().find("ms"), std::string::npos);
  EXPECT_NE(SimTime::from_s(2).str().find("s"), std::string::npos);
}

}  // namespace
}  // namespace aseck::util
