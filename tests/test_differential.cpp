// Differential testing: every root finder -- the interleaving tree (on
// one thread and as the task graph on four), the root-radii pipeline
// (kRadii), Sturm isolation and Descartes isolation -- must produce
// bit-identical mu-approximations across workload families, precisions,
// and solver modes.  The tree also runs with every fast path forced on --
// the multimodular remainder sequence and combines on every node, the
// BigInt Karatsuba/NTT ladder from 4 limbs -- under every available mod-p
// kernel ISA.  A disagreement localizes a bug to one pipeline; agreement
// of algorithmically unrelated methods is strong evidence of correctness.
// (The test keeps its original name, `ThreeFindersAgreeAndCertify`, from
// when it compared three finders.)
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baseline/descartes_finder.hpp"
#include "baseline/sturm_finder.hpp"
#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "modular/simd/simd.hpp"
#include "poly/squarefree.hpp"
#include "support/prng.hpp"
#include "verify/certificate.hpp"

namespace pr {
namespace {

enum class Family {
  kCharPoly,
  kJacobi,
  kWilkinson,
  kChebyshev,
  kLegendre,
  kLaguerre,
  kClustered,
};

const char* family_name(Family f) {
  switch (f) {
    case Family::kCharPoly: return "CharPoly";
    case Family::kJacobi: return "Jacobi";
    case Family::kWilkinson: return "Wilkinson";
    case Family::kChebyshev: return "Chebyshev";
    case Family::kLegendre: return "Legendre";
    case Family::kLaguerre: return "Laguerre";
    case Family::kClustered: return "Clustered";
  }
  return "?";
}

Poly make_input(Family f, Prng& rng) {
  switch (f) {
    case Family::kCharPoly: return squarefree_part(paper_input(11, rng).poly);
    case Family::kJacobi: return random_jacobi_poly(12, 5, rng);
    case Family::kWilkinson: return wilkinson(11);
    case Family::kChebyshev: return chebyshev_t(12);
    case Family::kLegendre: return legendre_scaled(11);
    case Family::kLaguerre: return laguerre_scaled(10);
    case Family::kClustered: return clustered_rational_roots(8, 64, 4, rng);
  }
  return Poly{};
}

using DiffParam = std::tuple<Family, std::size_t>;

/// Restores the startup kernel table and the schoolbook-only BigInt
/// dispatch however the test exits.
struct FastPathGuard {
  ~FastPathGuard() {
    modular::simd::reset_forced_isa();
    BigInt::set_mul_dispatch(MulDispatch{});
  }
};

class Differential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(Differential, ThreeFindersAgreeAndCertify) {
  const auto [family, mu] = GetParam();
  Prng rng(0xd1ffull * (static_cast<std::uint64_t>(family) + 1) + mu);
  const Poly p = make_input(family, rng);

  RootFinderConfig tree_cfg;
  tree_cfg.mu_bits = mu;
  const auto tree = find_real_roots(p, tree_cfg);

  ParallelConfig four;
  four.num_threads = 4;
  const auto graph = find_real_roots_parallel(p, tree_cfg, four);

  RootFinderConfig radii_cfg = tree_cfg;
  radii_cfg.strategy = FinderStrategy::kRadii;
  const auto radii = find_real_roots(p, radii_cfg);

  IntervalSolverConfig scfg;
  const auto sturm = sturm_find_roots(p, mu, scfg, nullptr);
  const auto desc = descartes_find_roots(p, mu, scfg, nullptr);

  const std::string where =
      std::string(family_name(family)) + " mu=" + std::to_string(mu);
  EXPECT_EQ(tree.roots, graph.report.roots) << where << " (graph, 4 threads)";
  EXPECT_EQ(tree.roots, radii.roots) << where << " (radii)";
  EXPECT_EQ(tree.roots, sturm) << where << " (sturm)";
  EXPECT_EQ(tree.roots, desc) << where << " (descartes)";

  const auto cert = certify_cells(p, tree.roots, mu);
  EXPECT_TRUE(cert.valid) << cert.to_string();

  // Every fast path forced on: modular on every node, the BigInt ladder
  // at its lowest threshold, under each kernel ISA, on one and four
  // threads.
  RootFinderConfig fast_cfg = tree_cfg;
  fast_cfg.modular.enabled = true;
  fast_cfg.modular.min_degree = 2;
  fast_cfg.modular.min_combine_bits = 1;
  fast_cfg.modular.combine_cost_gate = false;
  const FastPathGuard guard;
  BigInt::set_mul_dispatch({.karatsuba = true,
                            .ntt = true,
                            .karatsuba_threshold = 4,
                            .ntt_threshold = 4});
  for (const modular::simd::Isa isa : modular::simd::available_isas()) {
    ASSERT_TRUE(modular::simd::force_isa(isa));
    for (const int threads : {1, 4}) {
      const std::string fast_where =
          where + " (fast paths, " + modular::simd::isa_name(isa) + ", " +
          std::to_string(threads) + " threads)";
      ParallelConfig pc;
      pc.num_threads = threads;
      instr::reset_modular();
      const auto fast = find_real_roots_parallel(p, fast_cfg, pc);
      EXPECT_GT(instr::modular_counts().images, 0u) << fast_where;
      EXPECT_EQ(tree.roots, fast.report.roots) << fast_where;
      EXPECT_EQ(tree.multiplicities, fast.report.multiplicities)
          << fast_where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByPrecision, Differential,
    ::testing::Combine(::testing::Values(Family::kCharPoly, Family::kJacobi,
                                         Family::kWilkinson,
                                         Family::kChebyshev,
                                         Family::kLegendre,
                                         Family::kLaguerre,
                                         Family::kClustered),
                       ::testing::Values<std::size_t>(3, 24, 96)),
    [](const auto& param_info) {
      return std::string(family_name(std::get<0>(param_info.param))) + "_mu" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Differential, SolverModesAgreeThroughWholePipeline) {
  Prng rng(5555);
  const Poly p = random_jacobi_poly(15, 7, rng);
  std::vector<BigInt> reference;
  for (auto mode :
       {IntervalSolverConfig::Mode::kHybrid,
        IntervalSolverConfig::Mode::kBisectionNewton,
        IntervalSolverConfig::Mode::kRegulaFalsi,
        IntervalSolverConfig::Mode::kPureBisection}) {
    RootFinderConfig cfg;
    cfg.mu_bits = 61;
    cfg.solver.mode = mode;
    const auto rep = find_real_roots(p, cfg);
    if (reference.empty()) {
      reference = rep.roots;
    } else {
      EXPECT_EQ(rep.roots, reference);
    }
  }
}

TEST(Differential, KaratsubaDoesNotChangeResults) {
  Prng rng(6666);
  const auto input = paper_input(16, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 120;
  const auto school = find_real_roots(input.poly, cfg);
  BigInt::set_karatsuba_enabled(true);
  const auto kara = find_real_roots(input.poly, cfg);
  BigInt::set_karatsuba_enabled(false);
  EXPECT_EQ(school.roots, kara.roots);
}

TEST(Differential, GuardBitsDoNotChangeResults) {
  // The working-scale guard is an implementation knob; answers are exact
  // regardless of its value.
  Prng rng(7777);
  const Poly p = random_jacobi_poly(10, 4, rng);
  std::vector<BigInt> reference;
  for (std::size_t guard : {1u, 8u, 64u}) {
    RootFinderConfig cfg;
    cfg.mu_bits = 40;
    cfg.solver.guard_bits = guard;
    const auto rep = find_real_roots(p, cfg);
    if (reference.empty()) {
      reference = rep.roots;
    } else {
      EXPECT_EQ(rep.roots, reference) << "guard=" << guard;
    }
  }
}

}  // namespace
}  // namespace pr
