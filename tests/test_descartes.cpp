#include "baseline/descartes_finder.hpp"

#include <gtest/gtest.h>

#include "baseline/sturm_finder.hpp"
#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "isolate/descartes_isolate.hpp"
#include "poly/squarefree.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

using isolate::descartes_bound_01;
using isolate::descartes_sign_variations;

TEST(Descartes, SignVariations) {
  EXPECT_EQ(descartes_sign_variations(Poly{1, 1, 1}), 0);
  EXPECT_EQ(descartes_sign_variations(Poly{-1, 1}), 1);
  EXPECT_EQ(descartes_sign_variations(Poly{1, -3, 2}), 2);
  EXPECT_EQ(descartes_sign_variations(Poly{1, 0, -1}), 1)
      << "zero coefficients are skipped";
  EXPECT_EQ(descartes_sign_variations(Poly{}), 0);
  // Descartes: #positive roots <= variations, equal mod 2.
  const Poly p = poly_from_integer_roots({1, 2, -3});  // 2 positive roots
  EXPECT_GE(descartes_sign_variations(p), 2);
  EXPECT_EQ(descartes_sign_variations(p) % 2, 0);
}

TEST(Descartes, Bound01) {
  // (2x-1) has one root (1/2) in (0,1).
  EXPECT_EQ(descartes_bound_01(Poly{-1, 2}), 1);
  // (x-2): no roots in (0,1).
  EXPECT_EQ(descartes_bound_01(Poly{-2, 1}), 0);
  // (4x-1)(4x-3): two roots in (0,1); bound must be >= 2.
  EXPECT_GE(descartes_bound_01(Poly{-1, 4} * Poly{-3, 4}), 2);
  // Endpoint roots are excluded: x(x - 1/2 style)...
  EXPECT_EQ(descartes_bound_01(Poly{0, 1}), 0) << "root at t=0 not counted";
  EXPECT_EQ(descartes_bound_01(Poly{-1, 1}), 0) << "root at t=1 not counted";
}

TEST(Descartes, IntegerRoots) {
  IntervalSolverConfig cfg;
  const auto roots = descartes_find_roots(
      poly_from_integer_roots({-7, -3, 0, 2, 11}), 16, cfg, nullptr);
  ASSERT_EQ(roots.size(), 5u);
  const long long expect[] = {-7, -3, 0, 2, 11};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(roots[i], BigInt(expect[i]) << 16);
  }
}

TEST(Descartes, AgreesWithSturmAndTree) {
  Prng rng(808);
  IntervalSolverConfig cfg;
  for (int trial = 0; trial < 5; ++trial) {
    const auto input = paper_input(6 + 3 * trial, rng);
    const Poly sf = squarefree_part(input.poly);
    for (std::size_t mu : {5u, 40u}) {
      const auto a = descartes_find_roots(sf, mu, cfg, nullptr);
      const auto b = sturm_find_roots(sf, mu, cfg, nullptr);
      EXPECT_EQ(a, b) << "n=" << input.poly.degree() << " mu=" << mu;
      RootFinderConfig rcfg;
      rcfg.mu_bits = mu;
      EXPECT_EQ(a, find_real_roots(input.poly, rcfg).roots);
    }
  }
}

TEST(Descartes, DyadicRootsPeeledExactly) {
  // Roots at 1/2, 3/4, and an irrational sqrt(2): dyadic roots hit the
  // midpoint-peeling path.
  const Poly p = Poly{-1, 2} * Poly{-3, 4} * Poly{-2, 0, 1};
  IntervalSolverConfig cfg;
  const auto roots = descartes_find_roots(p, 20, cfg, nullptr);
  ASSERT_EQ(roots.size(), 4u);
  EXPECT_EQ(roots[1], BigInt(1) << 19);           // 1/2
  EXPECT_EQ(roots[2], BigInt(3) << 18);           // 3/4
}

TEST(Descartes, ClusteredRoots) {
  Prng rng(809);
  const Poly p = clustered_rational_roots(6, 128, 3, rng);
  IntervalSolverConfig cfg;
  const auto a = descartes_find_roots(p, 3, cfg, nullptr);
  const auto b = sturm_find_roots(p, 3, cfg, nullptr);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 6u);
}

TEST(Descartes, EvenPolynomialNoNormalityNeeded) {
  const Poly p = Poly{-2, 0, 1} * Poly{-3, 0, 1};
  IntervalSolverConfig cfg;
  EXPECT_EQ(descartes_find_roots(p, 30, cfg, nullptr).size(), 4u);
}

TEST(Descartes, NoRealRoots) {
  IntervalSolverConfig cfg;
  EXPECT_TRUE(descartes_find_roots(Poly{1, 0, 1}, 10, cfg, nullptr).empty());
}

TEST(Descartes, WilkinsonGrid) {
  IntervalSolverConfig cfg;
  for (int n : {6, 12, 18}) {
    const auto roots = descartes_find_roots(wilkinson(n), 12, cfg, nullptr);
    ASSERT_EQ(roots.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(roots[static_cast<std::size_t>(i)],
                BigInt(static_cast<long long>(i + 1)) << 12);
    }
  }
}

TEST(Descartes, RejectsConstants) {
  IntervalSolverConfig cfg;
  EXPECT_THROW(descartes_find_roots(Poly{3}, 8, cfg, nullptr),
               InvalidArgument);
}

TEST(Descartes, RepeatedRootHitsTheDepthBound) {
  // (x^2 - 2)^2 (x + 3): the Descartes bound never drops below 2 around
  // +-sqrt(2), so only the band isolator's depth bound stops the
  // subdivision -- with a clean InvalidArgument, as isolate_in_band
  // raises on the same input.
  const Poly p = Poly{-2, 0, 1} * Poly{-2, 0, 1} * Poly{3, 1};
  IntervalSolverConfig cfg;
  EXPECT_THROW(descartes_find_roots(p, 20, cfg, nullptr), InvalidArgument);
  EXPECT_THROW(isolate::isolate_in_band(p, BigInt(-8), BigInt(8), 0),
               InvalidArgument);
  // The squarefree part is fine.
  EXPECT_EQ(descartes_find_roots(squarefree_part(p), 20, cfg, nullptr).size(),
            3u);
}

}  // namespace
}  // namespace pr
