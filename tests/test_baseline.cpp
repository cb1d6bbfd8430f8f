#include "baseline/sturm_finder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/interval_ablations.hpp"
#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "poly/squarefree.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

TEST(SturmFinder, IntegerRoots) {
  IntervalSolverConfig cfg;
  const auto roots = sturm_find_roots(
      poly_from_integer_roots({-7, -3, 0, 2, 11}), 16, cfg, nullptr);
  ASSERT_EQ(roots.size(), 5u);
  const long long expect[] = {-7, -3, 0, 2, 11};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(roots[i], BigInt(expect[i]) << 16);
  }
}

TEST(SturmFinder, AgreesWithTreeAlgorithmExactly) {
  // The headline cross-check: two completely different isolation
  // strategies must produce bit-identical mu-approximations.
  Prng rng(31337);
  IntervalSolverConfig cfg;
  for (int trial = 0; trial < 5; ++trial) {
    const auto input = paper_input(7 + 2 * trial, rng);
    for (std::size_t mu : {6u, 30u}) {
      RootFinderConfig rcfg;
      rcfg.mu_bits = mu;
      const auto tree = find_real_roots(input.poly, rcfg);
      const auto base =
          sturm_find_roots(squarefree_part(input.poly), mu, cfg, nullptr);
      EXPECT_EQ(tree.roots, base) << "n=" << input.poly.degree()
                                  << " mu=" << mu;
    }
  }
}

TEST(SturmFinder, ClusteredRootsBelowOutputGrid) {
  // Roots 1/64 apart but mu = 2: isolation must descend below the output
  // grid and still produce correct (possibly equal) approximations.
  Prng rng(11);
  const Poly p = clustered_rational_roots(5, 64, 2, rng);
  IntervalSolverConfig cfg;
  const auto coarse = sturm_find_roots(p, 2, cfg, nullptr);
  const auto fine = sturm_find_roots(p, 40, cfg, nullptr);
  ASSERT_EQ(coarse.size(), 5u);
  ASSERT_EQ(fine.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(coarse[i], BigInt::cdiv(fine[i], BigInt::pow2(38)));
  }
}

TEST(SturmFinder, IrrationalRootsHighPrecision) {
  IntervalSolverConfig cfg;
  const auto roots = sturm_find_roots(Poly{-2, 0, 1}, 100, cfg, nullptr);
  ASSERT_EQ(roots.size(), 2u);
  const BigInt two_scaled = BigInt(2) << 200;
  EXPECT_LT((roots[1] - BigInt(1)) * (roots[1] - BigInt(1)), two_scaled);
  EXPECT_GE(roots[1] * roots[1], two_scaled);
}

TEST(SturmFinder, EvenPolynomialNoFallbackNeeded) {
  // The baseline has no normality requirement.
  const Poly p = Poly{-2, 0, 1} * Poly{-3, 0, 1};
  IntervalSolverConfig cfg;
  const auto roots = sturm_find_roots(p, 40, cfg, nullptr);
  EXPECT_EQ(roots.size(), 4u);
}

TEST(SturmFinder, RejectsConstants) {
  IntervalSolverConfig cfg;
  EXPECT_THROW(sturm_find_roots(Poly{3}, 8, cfg, nullptr), InvalidArgument);
}

TEST(SturmFinder, RepeatedRootIsInvalidArgument) {
  // (x^2 - 2)^2 (x + 3): the Sturm count isolates the double roots +-sqrt(2)
  // in cells without a sign change, which the shared refinement tail
  // reports as a non-squarefree input.
  const Poly p = Poly{-2, 0, 1} * Poly{-2, 0, 1} * Poly{3, 1};
  IntervalSolverConfig cfg;
  EXPECT_THROW(sturm_find_roots(p, 20, cfg, nullptr), InvalidArgument);
  EXPECT_EQ(sturm_find_roots(squarefree_part(p), 20, cfg, nullptr).size(),
            3u);
}

TEST(Ablations, ModesAgreeAndRankByCost) {
  Prng rng(5150);
  const auto input = paper_input(12, rng);
  const auto runs = compare_solver_modes(input.poly, 80);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].mode, IntervalSolverConfig::Mode::kHybrid);
  // Hybrid must beat pure bisection on interval-phase bit cost at this
  // precision (the point of the paper's hybrid design).
  EXPECT_LT(runs[0].interval_bitcost, runs[3].interval_bitcost);
  EXPECT_LT(runs[2].interval_bitcost, runs[3].interval_bitcost)
      << "regula falsi must also beat pure bisection";
  EXPECT_STREQ(solver_mode_name(runs[0].mode), "hybrid");
  EXPECT_STREQ(solver_mode_name(runs[2].mode), "regula-falsi");
  EXPECT_STREQ(solver_mode_name(runs[3].mode), "pure-bisection");
}

}  // namespace
}  // namespace pr
