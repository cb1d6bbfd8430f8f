#include "core/root_finder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

RootFinderConfig validated(std::size_t mu) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.validate = true;
  return cfg;
}

TEST(RootFinder, IntegerRootsAreExact) {
  const auto rep =
      find_real_roots(poly_from_integer_roots({-7, -3, 0, 2, 11}),
                      validated(32));
  ASSERT_EQ(rep.roots.size(), 5u);
  const long long expect[] = {-7, -3, 0, 2, 11};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rep.roots[i], BigInt(expect[i]) << 32);
    EXPECT_EQ(rep.multiplicities[i], 1u);
  }
  EXPECT_FALSE(rep.squarefree_reduced);
  EXPECT_FALSE(rep.used_sturm_fallback);
  EXPECT_EQ(rep.degree, 5);
  EXPECT_EQ(rep.distinct_roots, 5);
}

TEST(RootFinder, DegreeOneAndTwo) {
  const auto lin = find_real_roots(Poly{-3, 2}, validated(10));  // 3/2
  ASSERT_EQ(lin.roots.size(), 1u);
  EXPECT_EQ(lin.roots[0], BigInt(3) << 9);
  const auto quad = find_real_roots(Poly{-2, 0, 1}, validated(53));
  ASSERT_EQ(quad.roots.size(), 2u);
  EXPECT_NEAR(quad.root_as_double(0), -std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(quad.root_as_double(1), std::sqrt(2.0), 1e-12);
}

TEST(RootFinder, ValidateAcceptsNonRealRootsOnTheSturmFallback) {
  // x^3 - 2 has one real root and two complex ones: the tree algorithm
  // does not apply, the Sturm fallback answers, and validation certifies
  // the one cell without requiring all roots real.
  const auto rep = find_real_roots(Poly{-2, 0, 0, 1}, validated(30));
  EXPECT_TRUE(rep.used_sturm_fallback);
  ASSERT_EQ(rep.roots.size(), 1u);
  EXPECT_NEAR(rep.root_as_double(0), std::cbrt(2.0), 1e-8);
  RootFinderConfig plain;
  plain.mu_bits = 30;
  EXPECT_EQ(find_real_roots(Poly{-2, 0, 0, 1}, plain).roots, rep.roots);
}

TEST(RootFinder, CeilingConvention) {
  // Root at exactly 5/4 with mu = 1: ceil(2 * 1.25) = 3.
  const auto rep = find_real_roots(Poly{-5, 4}, validated(1));
  EXPECT_EQ(rep.roots[0].to_int64(), 3);
  // Negative root -5/4: ceil(-2.5) = -2.
  const auto neg = find_real_roots(Poly{5, 4}, validated(1));
  EXPECT_EQ(neg.roots[0].to_int64(), -2);
}

TEST(RootFinder, WilkinsonFamily) {
  for (int n : {5, 10, 16, 23}) {
    const auto rep = find_real_roots(wilkinson(n), validated(24));
    ASSERT_EQ(rep.roots.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(rep.roots[static_cast<std::size_t>(i)],
                BigInt(static_cast<long long>(i + 1)) << 24)
          << "wilkinson(" << n << ") root " << i + 1;
    }
  }
}

TEST(RootFinder, RepeatedRootsReportMultiplicities) {
  const auto rep = find_real_roots(
      poly_from_integer_roots({1, 1, 2, 2, 2, 5}), validated(16));
  EXPECT_TRUE(rep.squarefree_reduced);
  ASSERT_EQ(rep.roots.size(), 3u);
  EXPECT_EQ(rep.roots[0], BigInt(1) << 16);
  EXPECT_EQ(rep.roots[1], BigInt(2) << 16);
  EXPECT_EQ(rep.roots[2], BigInt(5) << 16);
  EXPECT_EQ(rep.multiplicities, (std::vector<unsigned>{2, 3, 1}));
  EXPECT_EQ(rep.distinct_roots, 3);
  EXPECT_EQ(rep.degree, 6);
}

TEST(RootFinder, PurePower) {
  const auto rep = find_real_roots(poly_from_integer_roots({-4, -4, -4, -4}),
                                   validated(8));
  ASSERT_EQ(rep.roots.size(), 1u);
  EXPECT_EQ(rep.roots[0], BigInt(-4) << 8);
  EXPECT_EQ(rep.multiplicities[0], 4u);
}

TEST(RootFinder, EvenRealRootedPolynomialsAreNormal) {
  // For squarefree polynomials with ALL roots real the remainder sequence
  // is provably normal (it is a Sturm sequence that must realize n sign
  // variations), so the tree path -- not the fallback -- handles them.
  const Poly p = Poly{-2, 0, 1} * Poly{-3, 0, 1};
  const auto rep = find_real_roots(p, validated(40));
  EXPECT_FALSE(rep.used_sturm_fallback);
  ASSERT_EQ(rep.roots.size(), 4u);
  EXPECT_NEAR(rep.root_as_double(0), -std::sqrt(3.0), 1e-10);
  EXPECT_NEAR(rep.root_as_double(1), -std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(rep.root_as_double(2), std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(rep.root_as_double(3), std::sqrt(3.0), 1e-10);
}

TEST(RootFinder, NonNormalSequenceMeansComplexRoots) {
  // x^4 + 1 (no real roots) has a non-normal sequence; the driver falls
  // back to the Sturm baseline, which correctly reports no real roots.
  const Poly p{1, 0, 0, 0, 1};
  RootFinderConfig cfg;
  cfg.mu_bits = 16;
  const auto rep = find_real_roots(p, cfg);
  EXPECT_TRUE(rep.used_sturm_fallback);
  EXPECT_TRUE(rep.roots.empty());
}

TEST(RootFinder, FallbackCanBeDisabled) {
  const Poly p{1, 0, 0, 0, 1};
  RootFinderConfig cfg;
  cfg.mu_bits = 10;
  cfg.allow_sturm_fallback = false;
  EXPECT_THROW(find_real_roots(p, cfg), NonNormalSequence);
}

TEST(RootFinder, MixedRealComplexRootsViaFallback) {
  // (x^2+1)(x^2-2)(x^2-x-1): only some roots real.  Whether or not the
  // sequence happens to be normal, asking for validation must not pass
  // silently with wrong roots: either the fallback finds exactly the real
  // roots, or the tree path's internal checks fire.
  const Poly p = Poly{1, 0, 1} * Poly{-2, 0, 1} * Poly{-1, -1, 1};
  RootFinderConfig cfg;
  cfg.mu_bits = 40;
  try {
    const auto rep = find_real_roots(p, cfg);
    ASSERT_EQ(rep.roots.size(), 4u);
    EXPECT_NEAR(rep.root_as_double(0), -std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(rep.root_as_double(1), (1.0 - std::sqrt(5.0)) / 2, 1e-9);
    EXPECT_NEAR(rep.root_as_double(2), std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(rep.root_as_double(3), (1.0 + std::sqrt(5.0)) / 2, 1e-9);
    EXPECT_TRUE(rep.used_sturm_fallback)
        << "a tree-path result for a complex-rooted input would be wrong";
  } catch (const Error&) {
    // Acceptable: the tree path detected the contract violation.
  }
}

TEST(RootFinder, ContentIsIrrelevant) {
  const Poly p = BigInt(60) * poly_from_integer_roots({-1, 4});
  const auto rep = find_real_roots(p, validated(12));
  ASSERT_EQ(rep.roots.size(), 2u);
  EXPECT_EQ(rep.roots[0], BigInt(-1) << 12);
  EXPECT_EQ(rep.roots[1], BigInt(4) << 12);
}

TEST(RootFinder, NegativeLeadingCoefficient) {
  const Poly p = BigInt(-3) * poly_from_integer_roots({-2, 1, 7});
  const auto rep = find_real_roots(p, validated(20));
  ASSERT_EQ(rep.roots.size(), 3u);
  EXPECT_EQ(rep.roots[2], BigInt(7) << 20);
}

TEST(RootFinder, CloseRootsShareCellAtCoarsePrecision) {
  // Roots 1/4 and 3/8 at mu = 1: both approximate to ceil(2x)/2 = 1/2.
  const Poly p = Poly{-1, 4} * Poly{-3, 8};
  const auto rep = find_real_roots(p, validated(1));
  ASSERT_EQ(rep.roots.size(), 2u);
  EXPECT_EQ(rep.roots[0].to_int64(), 1);
  EXPECT_EQ(rep.roots[1].to_int64(), 1);
}

TEST(RootFinder, ChebyshevNodesAgainstClosedForm) {
  const int n = 9;
  const auto rep = find_real_roots(chebyshev_t(n), validated(50));
  ASSERT_EQ(rep.roots.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double expected =
        std::cos((2.0 * (n - i) - 1.0) / (2.0 * n) * std::acos(-1.0));
    EXPECT_NEAR(rep.root_as_double(static_cast<std::size_t>(i)), expected,
                1e-12);
  }
}

TEST(RootFinder, HermiteAndLegendreRootsSymmetric) {
  for (const Poly& p : {hermite(8), legendre_scaled(9)}) {
    const auto rep = find_real_roots(p, validated(60));
    const std::size_t n = rep.roots.size();
    ASSERT_EQ(static_cast<int>(n), p.degree());
    // Roots come in +- pairs (odd degree has 0 as middle root; the
    // ceiling convention maps -x and x to values summing to <= 1 ulp).
    for (std::size_t i = 0; i < n / 2; ++i) {
      const double a = rep.root_as_double(i);
      const double b = rep.root_as_double(n - 1 - i);
      EXPECT_NEAR(a + b, 0.0, 1e-12);
    }
  }
}

TEST(RootFinder, RandomCharPolyEigenvalueIdentities) {
  Prng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 6 + rng.below(14);
    const auto input = paper_input(n, rng);
    const auto rep = find_real_roots(input.poly, validated(60));
    // Sum of eigenvalues = trace; sum of squares = tr(A^2).
    double sum = 0, sumsq = 0;
    for (std::size_t i = 0; i < rep.roots.size(); ++i) {
      const double v = rep.root_as_double(i);
      sum += v * rep.multiplicities[i];
      sumsq += v * v * rep.multiplicities[i];
    }
    const double tr = input.matrix.trace().to_double();
    const double tr2 = (input.matrix * input.matrix).trace().to_double();
    EXPECT_NEAR(sum, tr, 1e-6 + 1e-9 * std::fabs(tr));
    EXPECT_NEAR(sumsq, tr2, 1e-6 + 1e-9 * std::fabs(tr2));
  }
}

TEST(RootFinder, PrecisionSweepIsConsistent) {
  // Higher-precision answers refine lower-precision ones:
  // ceil(2^a x) == ceil(ceil(2^b x) / 2^(b-a)) for b > a.
  const Poly p = Poly{-2, 0, 1} * Poly{-5, 0, 1} * Poly{-11, 0, 1};
  const auto hi = find_real_roots(p, validated(64));
  for (std::size_t mu : {2u, 9u, 33u}) {
    const auto lo = find_real_roots(p, validated(mu));
    ASSERT_EQ(lo.roots.size(), hi.roots.size());
    for (std::size_t i = 0; i < lo.roots.size(); ++i) {
      EXPECT_EQ(lo.roots[i], BigInt::cdiv(hi.roots[i],
                                          BigInt::pow2(64 - mu)))
          << "mu=" << mu << " i=" << i;
    }
  }
}

TEST(RootFinder, RepeatedComplexFactorsWithOneRealRoot) {
  // p = (x^2+1)^2 (x-1): one real root (multiplicity 1), repeated complex
  // factors.  Exercises the squarefree + fallback interplay.
  const Poly c2 = Poly{1, 0, 1};
  const Poly p = c2 * c2 * Poly{-1, 1};
  RootFinderConfig cfg;
  cfg.mu_bits = 24;
  const auto rep = find_real_roots(p, cfg);
  ASSERT_EQ(rep.roots.size(), 1u);
  EXPECT_EQ(rep.roots[0], BigInt(1) << 24);
  EXPECT_EQ(rep.multiplicities[0], 1u);
  EXPECT_TRUE(rep.used_sturm_fallback);
}

TEST(RootFinder, RepeatedRealAndComplexMix) {
  // p = (x-2)^3 (x^2+3): real root 2 with multiplicity 3.
  const Poly p = poly_from_integer_roots({2, 2, 2}) * Poly{3, 0, 1};
  RootFinderConfig cfg;
  cfg.mu_bits = 12;
  const auto rep = find_real_roots(p, cfg);
  ASSERT_EQ(rep.roots.size(), 1u);
  EXPECT_EQ(rep.roots[0], BigInt(2) << 12);
  EXPECT_EQ(rep.multiplicities[0], 3u);
}

TEST(RootFinder, RejectsConstants) {
  EXPECT_THROW(find_real_roots(Poly{42}), InvalidArgument);
  EXPECT_THROW(find_real_roots(Poly{}), InvalidArgument);
}

TEST(RootFinder, StatsArePopulated) {
  Prng rng(777);
  const auto input = paper_input(12, rng);
  const auto rep = find_real_roots(input.poly, validated(40));
  EXPECT_GT(rep.stats.intervals_solved, 0u);
  EXPECT_GT(rep.stats.bisect_evals, 0u);
  EXPECT_GT(rep.bound_pow2, 0u);
}

}  // namespace
}  // namespace pr
