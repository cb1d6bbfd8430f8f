// Differential tests for the fused BigInt kernels.
//
// Every fused operation (addmul, submul, add_shifted, sub_shifted,
// mul_assign, divmod-with-scratch, the rvalue-aware operators) must be
// value-identical to its plain composed-operator spelling for all sign
// combinations and across the inline/heap representation boundary (63-,
// 64-, 65-bit operands).  The suite closes with whole-pipeline checks:
// one-thread and four-thread runs of the driver must produce identical
// RootReports on the Wilkinson and Berkowitz workloads.
#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

/// Uniformly random magnitude with exactly `bits` bits, random sign.
BigInt random_bigint(Prng& rng, std::size_t bits) {
  if (bits == 0) return BigInt();
  BigInt v = BigInt::pow2(bits - 1);  // force the top bit
  for (std::size_t lo = 0; lo + 1 < bits; lo += 64) {
    const std::size_t width = std::min<std::size_t>(64, bits - 1 - lo);
    std::uint64_t word = rng.next();
    if (width < 64) word &= (std::uint64_t{1} << width) - 1;
    v += BigInt(static_cast<unsigned long long>(word)) << lo;
  }
  return rng.coin() ? -std::move(v) : v;
}

/// Bit sizes that straddle the inline-limb / heap-buffer boundary, plus a
/// clearly multi-limb size and zero.
const std::size_t kBoundarySizes[] = {0, 1, 62, 63, 64, 65, 128, 200};

// --- addmul / submul -----------------------------------------------------

TEST(BigIntFused, AddmulMatchesComposedAcrossBoundarySizes) {
  Prng rng(0xf05ed001ULL);
  for (std::size_t abits : kBoundarySizes) {
    for (std::size_t bbits : kBoundarySizes) {
      for (std::size_t cbits : kBoundarySizes) {
        BigInt a = random_bigint(rng, abits);
        const BigInt b = random_bigint(rng, bbits);
        const BigInt c = random_bigint(rng, cbits);
        BigInt expect = a + b * c;
        a.addmul(b, c);
        EXPECT_EQ(a, expect)
            << "bits=(" << abits << "," << bbits << "," << cbits << ")";
      }
    }
  }
}

TEST(BigIntFused, SubmulMatchesComposedAcrossBoundarySizes) {
  Prng rng(0xf05ed002ULL);
  for (std::size_t abits : kBoundarySizes) {
    for (std::size_t bbits : kBoundarySizes) {
      for (std::size_t cbits : kBoundarySizes) {
        BigInt a = random_bigint(rng, abits);
        const BigInt b = random_bigint(rng, bbits);
        const BigInt c = random_bigint(rng, cbits);
        BigInt expect = a - b * c;
        a.submul(b, c);
        EXPECT_EQ(a, expect)
            << "bits=(" << abits << "," << bbits << "," << cbits << ")";
      }
    }
  }
}

TEST(BigIntFused, AddmulAllSignCombinations) {
  // Exhaustive signs on fixed magnitudes that exercise carry, borrow, and
  // magnitude-flip paths of the signed accumulation core.
  const BigInt mags[] = {BigInt(0), BigInt(1), BigInt(7),
                         BigInt::pow2(63), BigInt::pow2(64) - BigInt(1),
                         BigInt::pow2(64), BigInt::pow2(130) + BigInt(99)};
  for (const BigInt& ma : mags) {
    for (const BigInt& mb : mags) {
      for (const BigInt& mc : mags) {
        for (int sa = -1; sa <= 1; sa += 2) {
          for (int sb = -1; sb <= 1; sb += 2) {
            for (int sc = -1; sc <= 1; sc += 2) {
              BigInt a = sa < 0 ? -ma : ma;
              const BigInt b = sb < 0 ? -mb : mb;
              const BigInt c = sc < 0 ? -mc : mc;
              BigInt ex_add = a + b * c;
              BigInt ex_sub = a - b * c;
              BigInt t = a;
              t.addmul(b, c);
              EXPECT_EQ(t, ex_add);
              t = a;
              t.submul(b, c);
              EXPECT_EQ(t, ex_sub);
            }
          }
        }
      }
    }
  }
}

TEST(BigIntFused, AddmulRandomizedWide) {
  Prng rng(0xf05ed003ULL);
  for (int iter = 0; iter < 500; ++iter) {
    BigInt a = random_bigint(rng, rng.below(400));
    const BigInt b = random_bigint(rng, rng.below(400));
    const BigInt c = random_bigint(rng, rng.below(400));
    BigInt expect = a + b * c;
    a.addmul(b, c);
    ASSERT_EQ(a, expect) << "iter " << iter;
  }
}

TEST(BigIntFused, AddmulWithExplicitScratchReusesBuffers) {
  Prng rng(0xf05ed004ULL);
  BigInt::Scratch scratch;
  for (int iter = 0; iter < 200; ++iter) {
    BigInt a = random_bigint(rng, 100 + rng.below(100));
    const BigInt b = random_bigint(rng, 100 + rng.below(100));
    const BigInt c = random_bigint(rng, 100 + rng.below(100));
    BigInt expect = a + b * c;
    a.addmul(b, c, scratch);
    ASSERT_EQ(a, expect);
    expect = a - b * c;
    a.submul(b, c, scratch);
    ASSERT_EQ(a, expect);
  }
}

TEST(BigIntFused, AddmulSelfAliasing) {
  Prng rng(0xf05ed005ULL);
  for (std::size_t bits : kBoundarySizes) {
    {
      BigInt a = random_bigint(rng, bits);
      const BigInt c = random_bigint(rng, 70);
      BigInt expect = a + a * c;
      a.addmul(a, c);  // b aliases the target
      EXPECT_EQ(a, expect);
    }
    {
      BigInt a = random_bigint(rng, bits);
      const BigInt b = random_bigint(rng, 70);
      BigInt expect = a + b * a;
      a.addmul(b, a);  // c aliases the target
      EXPECT_EQ(a, expect);
    }
    {
      BigInt a = random_bigint(rng, bits);
      BigInt expect = a + a * a;
      a.addmul(a, a);  // both operands alias the target
      EXPECT_EQ(a, expect);
    }
    {
      BigInt a = random_bigint(rng, bits);
      BigInt expect = a - a * a;
      a.submul(a, a);
      EXPECT_EQ(a, expect);
    }
  }
}

TEST(BigIntFused, FreeFunctionSpellings) {
  BigInt a(10), b(3), c(-4);
  addmul(a, b, c);
  EXPECT_EQ(a, BigInt(-2));
  submul(a, b, c);
  EXPECT_EQ(a, BigInt(10));
}

// --- add_shifted / sub_shifted -------------------------------------------

TEST(BigIntFused, AddShiftedMatchesComposed) {
  Prng rng(0xf05ed006ULL);
  const std::size_t shifts[] = {0, 1, 31, 63, 64, 65, 127, 128, 200};
  for (std::size_t abits : kBoundarySizes) {
    for (std::size_t bbits : kBoundarySizes) {
      for (std::size_t k : shifts) {
        BigInt a = random_bigint(rng, abits);
        const BigInt b = random_bigint(rng, bbits);
        BigInt expect = a + (b << k);
        BigInt t = a;
        t.add_shifted(b, k);
        EXPECT_EQ(t, expect) << "abits=" << abits << " bbits=" << bbits
                             << " k=" << k;
        expect = a - (b << k);
        t = a;
        t.sub_shifted(b, k);
        EXPECT_EQ(t, expect) << "abits=" << abits << " bbits=" << bbits
                             << " k=" << k;
      }
    }
  }
}

TEST(BigIntFused, AddShiftedSelfAliasing) {
  Prng rng(0xf05ed007ULL);
  for (std::size_t bits : kBoundarySizes) {
    BigInt a = random_bigint(rng, bits);
    BigInt expect = a + (a << 67);
    BigInt t = a;
    t.add_shifted(t, 67);
    EXPECT_EQ(t, expect);
    expect = a - (a << 3);
    t = a;
    t.sub_shifted(t, 3);
    EXPECT_EQ(t, expect);
    // k == 0 self-subtraction must cancel to exactly zero.
    t = a;
    t.sub_shifted(t, 0);
    EXPECT_TRUE(t.is_zero());
  }
}

// --- mul_assign and the in-place operator special cases ------------------

TEST(BigIntFused, MulAssignMatchesOperatorStar) {
  Prng rng(0xf05ed008ULL);
  BigInt::Scratch scratch;
  for (int iter = 0; iter < 300; ++iter) {
    BigInt a = random_bigint(rng, rng.below(300));
    const BigInt b = random_bigint(rng, rng.below(300));
    const BigInt expect = a * b;
    a.mul_assign(b, scratch);
    ASSERT_EQ(a, expect) << "iter " << iter;
  }
}

TEST(BigIntFused, InPlaceSelfOperatorIdentities) {
  Prng rng(0xf05ed009ULL);
  for (std::size_t bits : kBoundarySizes) {
    BigInt a = random_bigint(rng, bits);
    const BigInt orig = a;
    a += a;  // in-place doubling
    EXPECT_EQ(a, orig << 1);
    a = orig;
    a -= a;  // exact cancellation
    EXPECT_TRUE(a.is_zero());
    EXPECT_FALSE(a.negative()) << "-0 must normalize";
    a = orig;
    a *= a;  // self-square through scratch
    EXPECT_EQ(a, orig * orig);
  }
}

// --- rvalue-aware operators ----------------------------------------------

TEST(BigIntFused, RvalueOperatorsMatchLvalueResults) {
  Prng rng(0xf05ed00aULL);
  for (int iter = 0; iter < 200; ++iter) {
    const BigInt a = random_bigint(rng, rng.below(200));
    const BigInt b = random_bigint(rng, rng.below(200));
    // Each rvalue overload (&&/const&, const&/&&, &&/&&) must agree with
    // the copying const&/const& baseline.
    EXPECT_EQ(BigInt(a) + b, a + b);
    EXPECT_EQ(a + BigInt(b), a + b);
    EXPECT_EQ(BigInt(a) + BigInt(b), a + b);
    EXPECT_EQ(BigInt(a) - b, a - b);
    EXPECT_EQ(a - BigInt(b), a - b);
    EXPECT_EQ(BigInt(a) - BigInt(b), a - b);
    EXPECT_EQ(BigInt(a) * b, a * b);
    EXPECT_EQ(a * BigInt(b), a * b);
    EXPECT_EQ(BigInt(a) * BigInt(b), a * b);
    if (!b.is_zero()) {
      EXPECT_EQ(BigInt(a) / b, a / b);
      EXPECT_EQ(BigInt(a) % b, a % b);
    }
    EXPECT_EQ(BigInt(a) << 67, a << 67);
    EXPECT_EQ(BigInt(a) >> 3, a >> 3);
    EXPECT_EQ(-BigInt(a), -a);
    EXPECT_EQ(BigInt(a).abs(), a.abs());
  }
}

TEST(BigIntFused, ExpressionChainsReuseBuffers) {
  // Value checks for the chained-temporary paths the rvalue overloads
  // target; correctness here is what lets call sites drop explicit temps.
  const BigInt a = BigInt::pow2(100) + BigInt(17);
  const BigInt b = BigInt::pow2(90) - BigInt(3);
  const BigInt c = -(BigInt::pow2(80) + BigInt(11));
  EXPECT_EQ(a + b - c, a + b + (-c));
  EXPECT_EQ((a * b) + c, c + (a * b));
  EXPECT_EQ((a - b) * c, -( (b - a) * c ));
  EXPECT_EQ(((a + b) << 5) >> 5, a + b);
}

// --- division with scratch -----------------------------------------------

TEST(BigIntFused, DivmodWithScratchMatchesOperators) {
  Prng rng(0xf05ed00bULL);
  BigInt::Scratch scratch;
  for (int iter = 0; iter < 300; ++iter) {
    const BigInt a = random_bigint(rng, rng.below(400));
    BigInt b = random_bigint(rng, 1 + rng.below(200));
    BigInt q, r;
    BigInt::divmod(a, b, q, r, scratch);
    EXPECT_EQ(q, a / b) << "iter " << iter;
    EXPECT_EQ(r, a % b) << "iter " << iter;
    // Euclidean identity and the truncated-division sign contract.
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(BigInt::cmp_abs(r, b), 1);
    if (!r.is_zero()) {
      EXPECT_EQ(r.signum(), a.signum());
    }
  }
}

TEST(BigIntFused, DivmodOutputsMayAliasInputs) {
  const BigInt a = BigInt::pow2(130) + BigInt(12345);
  const BigInt b = BigInt::pow2(40) - BigInt(7);
  const BigInt qe = a / b;
  const BigInt re = a % b;
  BigInt q = a, r = b;
  BigInt::divmod(q, r, q, r);  // outputs alias both inputs
  EXPECT_EQ(q, qe);
  EXPECT_EQ(r, re);
}

// --- representation boundary ---------------------------------------------

TEST(BigIntFused, InlineRepresentationUpTo64Bits) {
  EXPECT_FALSE(BigInt().uses_heap_buffer());
  EXPECT_FALSE(BigInt(1).uses_heap_buffer());
  EXPECT_FALSE(BigInt(-1).uses_heap_buffer());
  // Construct directly: going through pow2(64) - 1 would transit a
  // two-limb value and (deliberately) retain its heap capacity.
  BigInt max_inline(~0ULL);  // 64 bits, one limb
  EXPECT_FALSE(max_inline.uses_heap_buffer());
  EXPECT_EQ(max_inline.limb_count(), 1u);
  BigInt heap = BigInt::pow2(64);  // 65 bits, two limbs
  EXPECT_TRUE(heap.uses_heap_buffer());
  EXPECT_EQ(heap.limb_count(), 2u);
}

TEST(BigIntFused, ArithmeticCrossesBoundaryCorrectly) {
  BigInt a(~0ULL);  // 2^64 - 1, still inline
  EXPECT_FALSE(a.uses_heap_buffer());
  a += BigInt(1);  // grows across the single-limb boundary
  EXPECT_EQ(a, BigInt::pow2(64));
  EXPECT_TRUE(a.uses_heap_buffer());
}

TEST(BigIntFused, HeapCapacityRetainedAfterShrink) {
  // A value that has grown a heap buffer keeps it when it shrinks: the
  // steady-state promise is that warmed-up accumulators stop allocating,
  // not that they release capacity.
  BigInt a = BigInt::pow2(200);
  EXPECT_TRUE(a.uses_heap_buffer());
  a -= BigInt::pow2(200) - BigInt(5);  // value is now 5: one limb
  EXPECT_EQ(a, BigInt(5));
  EXPECT_EQ(a.limb_count(), 1u);
  EXPECT_TRUE(a.uses_heap_buffer()) << "capacity must be retained";
  // And it still computes correctly from the retained buffer.
  a.addmul(BigInt::pow2(100), BigInt(3));
  EXPECT_EQ(a, BigInt::pow2(100) * BigInt(3) + BigInt(5));
}

// --- whole-pipeline bit-identity -----------------------------------------

void expect_reports_equal(const RootReport& x, const RootReport& y) {
  ASSERT_EQ(x.roots.size(), y.roots.size());
  for (std::size_t i = 0; i < x.roots.size(); ++i) {
    EXPECT_EQ(x.roots[i], y.roots[i]) << "root " << i;
  }
  EXPECT_EQ(x.multiplicities, y.multiplicities);
  EXPECT_EQ(x.mu, y.mu);
  EXPECT_EQ(x.bound_pow2, y.bound_pow2);
  EXPECT_EQ(x.degree, y.degree);
  EXPECT_EQ(x.distinct_roots, y.distinct_roots);
  EXPECT_EQ(x.squarefree_reduced, y.squarefree_reduced);
  EXPECT_EQ(x.used_sturm_fallback, y.used_sturm_fallback);
}

TEST(BigIntFusedPipeline, WilkinsonSequentialParallelIdentical) {
  const Poly p = wilkinson(16);
  RootFinderConfig config;
  config.mu_bits = 64;
  const RootReport seq = find_real_roots(p, config);
  ParallelConfig par;
  par.num_threads = 4;
  const ParallelRunResult parallel = find_real_roots_parallel(p, config, par);
  expect_reports_equal(seq, parallel.report);
  // Wilkinson roots are the integers 1..16: the mu-approximation of root
  // k must be exactly k * 2^mu (ceiling convention, exact hit).
  ASSERT_EQ(seq.roots.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(seq.roots[i], BigInt(static_cast<long long>(i + 1)) << 64);
  }
}

TEST(BigIntFusedPipeline, BerkowitzWorkloadSequentialParallelIdentical) {
  Prng rng(0x5eed0000ULL + 2400);
  const GeneratedInput input = paper_input(24, rng);
  RootFinderConfig config;
  config.mu_bits = 80;
  const RootReport seq = find_real_roots(input.poly, config);
  ParallelConfig par;
  par.num_threads = 4;
  par.grain = RemainderGrain::kPerCoefficient;
  const ParallelRunResult parallel =
      find_real_roots_parallel(input.poly, config, par);
  expect_reports_equal(seq, parallel.report);
  EXPECT_EQ(seq.degree, 24);
}

}  // namespace
}  // namespace pr
