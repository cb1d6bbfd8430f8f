// Differential and structural tests for the NTT module (modular/ntt.hpp).
//
// The load-bearing property is bit-identity: ntt_mul must equal the
// schoolbook convolution exactly, for every operand shape on both sides of
// the cost-model cutoff, at every table prime.  The structural tests pin
// the algebra the transforms rely on: the table's congruence class, the
// stored witness, and the exact multiplicative order of every root of
// unity the twiddle tables are built from.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "modular/ntt.hpp"
#include "modular/polyzp.hpp"
#include "modular/zp.hpp"
#include "support/prng.hpp"

namespace pr::modular {
namespace {

constexpr std::uint64_t kSmallPrime = 1000003;  // 2-adic order 1

PolyZp random_poly(std::size_t len, const PrimeField& f, Prng& rng) {
  std::vector<Zp> c(len);
  for (std::size_t i = 0; i < len; ++i) {
    c[i] = f.from_u64(rng.next());
  }
  // Force a nonzero leading coefficient so the length is exactly len.
  if (len > 0 && c[len - 1].v == 0) c[len - 1] = f.one();
  return PolyZp(std::move(c));
}

void expect_poly_eq(const PolyZp& a, const PolyZp& b, std::uint64_t p,
                    const char* what) {
  ASSERT_EQ(a.degree(), b.degree()) << what << " at p=" << p;
  EXPECT_TRUE(a == b) << what << " at p=" << p;
}

TEST(NttTable, TablePrimesAreNttFriendly) {
  for (std::size_t i = 0; i < 12; ++i) {
    const NttModulus m = nth_modulus_info(i);
    EXPECT_EQ(m.p, nth_modulus(i));
    EXPECT_TRUE(is_prime_u64(m.p));
    EXPECT_EQ(m.p % (1ull << 20), 1u) << "slot " << i;
    EXPECT_GE(m.two_adic, 20u) << "slot " << i;
    // two_adic is exactly v_2(p - 1).
    EXPECT_EQ((m.p - 1) >> m.two_adic << m.two_adic, m.p - 1);
    EXPECT_EQ(((m.p - 1) >> m.two_adic) & 1, 1u) << "slot " << i;
    // The stored witness is the smallest non-residue, re-derivable.
    EXPECT_EQ(m.witness, find_two_adic_witness(m.p)) << "slot " << i;
    EXPECT_GE(m.witness, 3u) << "p == 1 mod 8 makes 2 a residue";
  }
}

TEST(NttTable, RootsOfUnityHaveExactOrder) {
  for (std::size_t i = 0; i < 6; ++i) {
    const NttModulus m = nth_modulus_info(i);
    NttTables& t = NttTables::for_prime(m.p);
    const PrimeField& f = t.field();
    EXPECT_EQ(t.two_adic(), m.two_adic);
    for (unsigned k : {1u, 2u, 5u, 10u, 20u}) {
      const Zp w = t.root_of_unity(k);
      // Order exactly 2^k: w^(2^k) == 1 but w^(2^(k-1)) == -1.
      EXPECT_EQ(f.to_u64(f.pow(w, 1ull << k)), 1u) << "p=" << m.p;
      EXPECT_EQ(f.to_u64(f.pow(w, 1ull << (k - 1))), m.p - 1)
          << "p=" << m.p << " k=" << k;
    }
  }
}

TEST(NttTable, RegistryIsKeyedByPrimeValue) {
  // Two distinct primes must never share tables, no matter what table
  // slots they occupy (regression for index-keyed caching).
  const std::uint64_t p0 = nth_modulus(0);
  const std::uint64_t p1 = nth_modulus(1);
  NttTables& t0 = NttTables::for_prime(p0);
  NttTables& t1 = NttTables::for_prime(p1);
  EXPECT_NE(&t0, &t1);
  EXPECT_EQ(t0.field().prime(), p0);
  EXPECT_EQ(t1.field().prime(), p1);
  // Same prime always resolves to the same instance.
  EXPECT_EQ(&t0, &NttTables::for_prime(p0));
}

TEST(NttTransform, ForwardInverseRoundTrip) {
  Prng rng(0xabcdef12345ull);
  NttTables& t = NttTables::for_prime(nth_modulus(0));
  const PrimeField& f = t.field();
  for (std::size_t n : {2u, 4u, 8u, 32u, 128u, 1024u}) {
    const NttPlan& plan = t.plan(n);
    std::vector<Zp> a(n);
    for (Zp& x : a) x = f.from_u64(rng.next());
    std::vector<Zp> orig = a;
    ntt_forward(a, plan, f);
    ntt_inverse(a, plan, f);
    EXPECT_EQ(a, orig) << "n=" << n;
  }
}

TEST(NttMul, MatchesSchoolbookAcrossSizesAndPrimes) {
  Prng rng(0x5eed7701ull);
  // Sizes straddling the cutoff (profitability flips around length ~32)
  // plus non-powers of two and asymmetric shapes.
  const std::size_t sizes[][2] = {{1, 1},  {2, 3},   {7, 5},    {15, 17},
                                  {16, 16}, {31, 33}, {32, 32},  {33, 100},
                                  {64, 64}, {100, 3}, {129, 127}, {256, 256}};
  for (std::size_t pi = 0; pi < 8; ++pi) {
    const PrimeField f = PrimeField::trusted(nth_modulus(pi));
    for (const auto& s : sizes) {
      const PolyZp a = random_poly(s[0], f, rng);
      const PolyZp b = random_poly(s[1], f, rng);
      expect_poly_eq(ntt_mul(a, b, f), a.mul_schoolbook(b, f), f.prime(),
                     "ntt_mul vs schoolbook");
    }
  }
}

TEST(NttMul, SquareMatchesSchoolbook) {
  Prng rng(0x12345ull);
  const PrimeField f = PrimeField::trusted(nth_modulus(0));
  for (std::size_t len : {5u, 33u, 64u, 200u}) {
    const PolyZp a = random_poly(len, f, rng);
    expect_poly_eq(a.sqr(f), a.mul_schoolbook(a, f), f.prime(), "sqr");
  }
}

TEST(NttMul, ZeroAndConstantOperands) {
  const PrimeField f = PrimeField::trusted(nth_modulus(0));
  Prng rng(0x777ull);
  const PolyZp zero;
  const PolyZp one(std::vector<Zp>{f.one()});
  const PolyZp big = random_poly(100, f, rng);
  EXPECT_TRUE(ntt_mul(zero, big, f).is_zero());
  EXPECT_TRUE(ntt_mul(big, zero, f).is_zero());
  expect_poly_eq(ntt_mul(one, big, f), big, f.prime(), "1 * a");
  expect_poly_eq(ntt_mul(big, one, f), big, f.prime(), "a * 1");
}

TEST(NttMul, SmallTwoAdicPrimeFallsBackCorrectly) {
  // kSmallPrime has v_2(p-1) = 1: no transforms above length 2 exist, so
  // even above-cutoff products must silently take schoolbook.
  const PrimeField f(kSmallPrime);
  EXPECT_EQ(NttTables::for_prime(kSmallPrime).two_adic(), 1u);
  Prng rng(0x999ull);
  const PolyZp a = random_poly(150, f, rng);
  const PolyZp b = random_poly(97, f, rng);
  expect_poly_eq(a.mul(b, f), a.mul_schoolbook(b, f), f.prime(),
                 "small-2-adic fallback");
}

TEST(NttMul, DispatchAgreesWithCostModel) {
  // mul() must route exactly per ntt_profitable, so thread count or call
  // site can never change which kernel runs.
  EXPECT_FALSE(ntt_profitable(1, 1));
  EXPECT_FALSE(ntt_profitable(8, 8));
  EXPECT_FALSE(ntt_profitable(4, 1000));  // tiny operand never profits
  EXPECT_TRUE(ntt_profitable(256, 256));
  EXPECT_TRUE(ntt_profitable(512, 512));
  // Monotone in the square case above the crossover.
  bool was = false;
  for (std::size_t l = 16; l <= 1024; l *= 2) {
    const bool now = ntt_profitable(l, l);
    EXPECT_TRUE(now || !was) << "profitability regressed at " << l;
    was = now;
  }
}

TEST(NttMul, ConvSizeIsNextPowerOfTwo) {
  EXPECT_EQ(ntt_conv_size(1, 1), 1u);
  EXPECT_EQ(ntt_conv_size(3, 3), 8u);
  EXPECT_EQ(ntt_conv_size(64, 64), 128u);
  EXPECT_EQ(ntt_conv_size(65, 64), 128u);
  EXPECT_EQ(ntt_conv_size(65, 65), 256u);
}

}  // namespace
}  // namespace pr::modular
