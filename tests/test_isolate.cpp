// The root-isolation subsystem (src/isolate/): Graeffe/Pellet root-radii
// estimation, band-restricted Descartes isolation, QIR refinement, the
// kRadii finder strategy (one thread and many, bit-identical to the
// paper path on its domain), and the independent isolation certificate.
#include "isolate/isolate.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/refine.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "isolate/root_radii.hpp"
#include "poly/sturm.hpp"
#include "sched/task_pool.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "verify/isolate_certificate.hpp"

namespace pr {
namespace {

using isolate::estimate_root_radii;
using isolate::graeffe_iteration;
using isolate::isolate_in_band;
using isolate::isolate_roots_radii;
using isolate::isqrt_floor;
using isolate::QirConfig;
using isolate::QirStats;
using isolate::RadiiConfig;

RootFinderConfig radii_config(std::size_t mu = 53) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.strategy = FinderStrategy::kRadii;
  return cfg;
}

void expect_same_report(const RootReport& a, const RootReport& b,
                        const char* label) {
  EXPECT_EQ(a.roots, b.roots) << label;
  EXPECT_EQ(a.multiplicities, b.multiplicities) << label;
  EXPECT_EQ(a.mu, b.mu) << label;
  EXPECT_EQ(a.degree, b.degree) << label;
  EXPECT_EQ(a.distinct_roots, b.distinct_roots) << label;
}

// --- root radii -------------------------------------------------------------

TEST(RootRadii, IsqrtFloorExactAndBetween) {
  EXPECT_EQ(isqrt_floor(BigInt(0)), BigInt(0));
  EXPECT_EQ(isqrt_floor(BigInt(1)), BigInt(1));
  EXPECT_EQ(isqrt_floor(BigInt(2)), BigInt(1));
  EXPECT_EQ(isqrt_floor(BigInt(3)), BigInt(1));
  EXPECT_EQ(isqrt_floor(BigInt(4)), BigInt(2));
  EXPECT_EQ(isqrt_floor(BigInt(99)), BigInt(9));
  EXPECT_EQ(isqrt_floor(BigInt(100)), BigInt(10));
  // Exhaustive floor invariant r^2 <= x < (r+1)^2 on a big random value.
  Prng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt x = BigInt::pow2(130) + BigInt(static_cast<long long>(rng.below(1u << 30)));
    const BigInt r = isqrt_floor(x);
    EXPECT_LE(r * r, x);
    EXPECT_GT((r + BigInt(1)) * (r + BigInt(1)), x);
  }
}

TEST(RootRadii, GraeffeSquaresTheRoots) {
  // (x-1)(x-2): the iterate must vanish at 1 and 4.
  const Poly p = poly_from_integer_roots({1, 2});
  const Poly q = graeffe_iteration(p);
  EXPECT_EQ(q.degree(), 2);
  EXPECT_GT(q.leading().signum(), 0);
  EXPECT_EQ(q.eval(BigInt(1)).signum(), 0);
  EXPECT_EQ(q.eval(BigInt(4)).signum(), 0);
  // Odd degree keeps the leading coefficient positive too.
  const Poly odd = poly_from_integer_roots({0, 2, -2});
  const Poly qo = graeffe_iteration(odd);
  EXPECT_EQ(qo.degree(), 3);
  EXPECT_GT(qo.leading().signum(), 0);
  EXPECT_EQ(qo.eval(BigInt(0)).signum(), 0);
  EXPECT_EQ(qo.eval(BigInt(4)).signum(), 0);
}

TEST(RootRadii, GraeffeIteratedOnWilkinson) {
  Poly q = wilkinson(6);
  for (int i = 0; i < 2; ++i) q = graeffe_iteration(q);
  // After two iterations the roots are r^4 for r = 1..6.
  for (long long r = 1; r <= 6; ++r) {
    EXPECT_EQ(q.eval(BigInt(r * r * r * r)).signum(), 0) << r;
  }
}

TEST(RootRadii, AnnuliCountsAndContainment) {
  // Roots of magnitude 1, 100 and 10000: three well-separated annuli.
  const Poly p = poly_from_integer_roots({1, -100, 10000});
  RadiiConfig cfg;
  const auto r = estimate_root_radii(p, cfg);
  ASSERT_EQ(r.annuli.size(), 3u);
  const BigInt scale = BigInt::pow2(r.guard_bits);
  const long long mags[] = {1, 100, 10000};
  int total = 0;
  for (std::size_t i = 0; i < r.annuli.size(); ++i) {
    const auto& a = r.annuli[i];
    EXPECT_EQ(a.count, 1);
    total += a.count;
    // inner/2^g <= |root| <= outer/2^g (outward dyadic rounding).
    EXPECT_LE(a.inner, BigInt(mags[i]) * scale);
    EXPECT_GE(a.outer, BigInt(mags[i]) * scale);
    if (i > 0) {
      EXPECT_LT(r.annuli[i - 1].outer, a.outer);
    }
  }
  EXPECT_EQ(total, p.degree());
  EXPECT_GT(r.pellet_tests, 0);
  EXPECT_GE(r.certified_splits, 2);  // at least the inner and outer bounds
}

TEST(RootRadii, ComplexRootsAreCounted) {
  // x^2 + 1: both roots on |z| = 1; one annulus, count 2.
  const Poly p{1, 0, 1};
  const auto r = estimate_root_radii(p, RadiiConfig{});
  int total = 0;
  for (const auto& a : r.annuli) total += a.count;
  EXPECT_EQ(total, 2);
  const BigInt one = BigInt::pow2(r.guard_bits);
  ASSERT_FALSE(r.annuli.empty());
  EXPECT_LE(r.annuli.front().inner, one);
  EXPECT_GE(r.annuli.back().outer, one);
}

TEST(RootRadii, NonSquarefreeInputsAreFine) {
  // (x-2)^3: count 3 in the annulus around |z| = 2 (multiplicity included).
  const Poly p = Poly{-2, 1} * Poly{-2, 1} * Poly{-2, 1};
  const auto r = estimate_root_radii(p, RadiiConfig{});
  int total = 0;
  for (const auto& a : r.annuli) total += a.count;
  EXPECT_EQ(total, 3);
}

// --- band-restricted Descartes ----------------------------------------------

TEST(Isolate, BandIsolatesInteriorAndEndpointRoots) {
  // Roots 1 and 3 inside [0, 4]; band endpoints 0 and 4 are roots of
  // x(x-1)(x-3)(x-4) but the band version gets them as exact cells.
  const Poly inner = poly_from_integer_roots({1, 3});
  auto cells = isolate_in_band(inner, BigInt(0), BigInt(4), 0);
  ASSERT_EQ(cells.size(), 2u);
  for (const auto& c : cells) {
    if (c.exact) {
      EXPECT_EQ(inner.sign_at_scaled(c.lo, c.scale), 0);
    } else {
      EXPECT_EQ(c.s_lo * c.s_hi, -1);
      EXPECT_LT(c.lo, c.hi);
    }
  }
  const Poly with_ends = poly_from_integer_roots({0, 1, 3, 4});
  cells = isolate_in_band(with_ends, BigInt(0), BigInt(4), 0);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cells.front().exact);
  EXPECT_EQ(cells.front().lo, BigInt(0));
  EXPECT_TRUE(cells.back().exact);
  EXPECT_EQ(cells.back().lo, BigInt(4) << cells.back().scale);
}

TEST(Isolate, RepeatedRootExceedsDepthBound) {
  // A repeated root at a dyadic subdivision point is peeled exactly (one
  // cell, no divergence)...
  const Poly dyadic = Poly{-1, 1} * Poly{-1, 1};  // (x-1)^2
  const auto cells = isolate_in_band(dyadic, BigInt(0), BigInt(2), 0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells.front().exact);
  // ...but a non-dyadic repeated root can never be separated, and the
  // squarefree depth bound converts the divergence into a diagnostic.
  const Poly p = Poly{-2, 0, 1} * Poly{-2, 0, 1};  // (x^2 - 2)^2
  EXPECT_THROW(isolate_in_band(p, BigInt(0), BigInt(2), 0), InvalidArgument);
}

TEST(Isolate, FullPipelineHandlesZeroRoot) {
  // x(x-1)(x+1): zero root becomes an exact cell, the others isolate
  // against the stripped polynomial.
  const Poly p = poly_from_integer_roots({0, 1, -1});
  const auto out = isolate_roots_radii(p, RadiiConfig{});
  ASSERT_EQ(out.cells.size(), 3u);
  EXPECT_EQ(out.stripped.degree(), 2);
  bool has_zero = false;
  for (const auto& c : out.cells) {
    if (c.exact && c.lo.is_zero()) has_zero = true;
  }
  EXPECT_TRUE(has_zero);
  // Cells are sorted left to right.
  for (std::size_t i = 1; i < out.cells.size(); ++i) {
    EXPECT_TRUE(isolate::cell_less(out.cells[i - 1], out.cells[i]));
  }
}

TEST(Isolate, ComplexRootsProduceNoCells) {
  const Poly p{-1, 0, 0, 1};  // x^3 - 1: one real root
  const auto out = isolate_roots_radii(p, RadiiConfig{});
  EXPECT_EQ(out.cells.size(), 1u);
  const Poly q{1, 0, 1};  // x^2 + 1: none
  EXPECT_TRUE(isolate_roots_radii(q, RadiiConfig{}).cells.empty());
}

TEST(Isolate, CertificateValidOnGenerators) {
  Prng rng(42);
  const Poly clustered = clustered_squarefree(6, 8, 3, rng);
  auto cert = certify_isolation(clustered);
  EXPECT_TRUE(cert.valid) << cert.to_string();
  EXPECT_EQ(cert.distinct_real_roots, 6);

  const Poly mign = mignotte(9, 5);
  cert = certify_isolation(mign);
  EXPECT_TRUE(cert.valid) << cert.to_string();

  for (int degree : {5, 9, 14}) {
    const Poly p = random_squarefree_poly(degree, 12, rng);
    cert = certify_isolation(p);
    EXPECT_TRUE(cert.valid) << "degree " << degree << "\n"
                            << cert.to_string();
  }
}

TEST(Isolate, CertificateRejectsTamperedCells) {
  const Poly p = poly_from_integer_roots({1, 3, 5});
  auto out = isolate_roots_radii(p, RadiiConfig{});
  ASSERT_EQ(out.cells.size(), 3u);
  // Drop a cell: totality fails.
  auto dropped = out.cells;
  dropped.pop_back();
  EXPECT_FALSE(certify_cells_isolated(p, dropped).valid);
  // Duplicate an exact cell: disjointness fails.
  auto duped = out.cells;
  duped.push_back(duped.back());
  EXPECT_FALSE(certify_cells_isolated(p, duped).valid);
  // Non-squarefree input is rejected outright.
  const Poly sq = Poly{-1, 1} * Poly{-1, 1};
  EXPECT_FALSE(certify_cells_isolated(sq, out.cells).valid);
}

// --- QIR --------------------------------------------------------------------

TEST(Qir, SolveSqrtTwoToHighPrecision) {
  const Poly p{-2, 0, 1};
  QirStats stats;
  const std::size_t mu = 200;
  const BigInt k = isolate::qir_solve(p, BigInt(1), BigInt(2), -1, 1, 0, mu,
                                      QirConfig{}, &stats);
  // (k-1)^2 < 2 * 2^(2mu) <= k^2: the ceiling of 2^mu sqrt(2).
  EXPECT_LT((k - BigInt(1)) * (k - BigInt(1)), BigInt(2) << (2 * mu));
  EXPECT_GE(k * k, BigInt(2) << (2 * mu));
  EXPECT_GT(stats.iters, 0u);
  EXPECT_GT(stats.evals, 0u);
}

TEST(Qir, QuadraticConvergenceDoublesTheGrid) {
  // Successful secant steps double log2 N; reaching a large grid within
  // one deep refinement is the observable quadratic-convergence signature.
  const Poly p{-2, 0, 1};
  QirStats stats;
  QirConfig cfg;
  isolate::qir_solve(p, BigInt(1), BigInt(2), -1, 1, 0, 2000, cfg, &stats);
  EXPECT_GT(stats.successes, 0u);
  EXPECT_GE(stats.max_subdiv_log2, 4 * cfg.initial_subdiv_log2);
}

TEST(Qir, RefineMatchesIntervalSolverBitForBit) {
  Prng rng(2026);
  const auto input = paper_input(12, rng);
  RootFinderConfig lo_cfg;
  lo_cfg.mu_bits = 8;
  const auto lo = find_real_roots(input.poly, lo_cfg);
  for (const auto& k : lo.roots) {
    EXPECT_EQ(isolate::refine_root_qir(input.poly, k, 8, 120),
              refine_root(input.poly, k, 8, 120));
  }
}

TEST(Qir, ExactRootStaysExact) {
  const Poly p = poly_from_integer_roots({3, 7});
  EXPECT_EQ(isolate::refine_root_qir(p, BigInt(3) << 4, 4, 10),
            BigInt(3) << 10);
  EXPECT_EQ(isolate::refine_root_qir(p, BigInt(3) << 4, 4, 4),
            BigInt(3) << 4);
}

TEST(Qir, RejectsNonIsolatingCell) {
  const Poly p{-2, 0, 1};
  EXPECT_THROW(isolate::refine_root_qir(p, BigInt(100) << 4, 4, 10),
               InvalidArgument);
  EXPECT_THROW(isolate::refine_root_qir(p, BigInt(1), 10, 5),
               InvalidArgument);
}

// --- the kRadii strategy, one thread ----------------------------------------

TEST(IsolateStrategy, BitIdenticalToPaperOnInterleavingWorkloads) {
  Prng rng(11);
  for (std::size_t n : {6u, 10u, 14u}) {
    const auto input = paper_input(n, rng);
    RootFinderConfig paper_cfg;
    paper_cfg.mu_bits = 53;
    const auto paper = find_real_roots(input.poly, paper_cfg);
    const auto radii = find_real_roots(input.poly, radii_config(53));
    expect_same_report(paper, radii, "paper_input");
  }
  const Poly w = wilkinson(15);
  RootFinderConfig paper_cfg;
  const auto paper = find_real_roots(w, paper_cfg);
  const auto radii = find_real_roots(w, radii_config());
  expect_same_report(paper, radii, "wilkinson(15)");
}

TEST(IsolateStrategy, MultiplicitiesMatchPaperPath) {
  // (x-1)^2 (x+2): squarefree reduction + multiplicity assignment.
  const Poly p = Poly{-1, 1} * Poly{-1, 1} * Poly{2, 1};
  RootFinderConfig paper_cfg;
  const auto paper = find_real_roots(p, paper_cfg);
  const auto radii = find_real_roots(p, radii_config());
  expect_same_report(paper, radii, "(x-1)^2(x+2)");
  EXPECT_TRUE(radii.squarefree_reduced);
}

TEST(IsolateStrategy, AcceptsInputsThePaperPathRejects) {
  RootFinderConfig strict;
  strict.allow_sturm_fallback = false;
  const Poly mign = mignotte(11, 4);
  EXPECT_THROW(find_real_roots(mign, strict), NonNormalSequence);

  auto cfg = radii_config();
  cfg.allow_sturm_fallback = false;
  cfg.validate = true;  // Sturm cross-check of every returned cell
  const auto report = find_real_roots(mign, cfg);
  EXPECT_EQ(static_cast<int>(report.roots.size()),
            SturmChain(mign).distinct_real_roots());
  EXPECT_FALSE(report.used_sturm_fallback);
}

// Inputs with non-real roots send the paper strategy to the Sturm
// fallback; its report must still describe the input the way the radii
// strategy does: reduced only when the input has a repeated factor, and
// n* = the number of distinct real roots found.
TEST(IsolateStrategy, SturmFallbackReportMatchesRadii) {
  const Poly x2p1{1, 0, 1};
  const struct {
    const char* name;
    Poly poly;
  } cases[] = {
      {"x^4+1", Poly{1, 0, 0, 0, 1}},
      {"x^3-2", Poly{-2, 0, 0, 1}},
      {"(x^2+1)^2(x-1)", x2p1 * x2p1 * Poly{-1, 1}},
  };
  for (const auto& c : cases) {
    RootFinderConfig paper_cfg;
    const auto paper = find_real_roots(c.poly, paper_cfg);
    const auto radii = find_real_roots(c.poly, radii_config());
    EXPECT_TRUE(paper.used_sturm_fallback) << c.name;
    expect_same_report(paper, radii, c.name);
    EXPECT_EQ(paper.bound_pow2, radii.bound_pow2) << c.name;
    EXPECT_EQ(paper.squarefree_reduced, radii.squarefree_reduced) << c.name;
  }
}

TEST(IsolateStrategy, GeneralSquarefreeInputsCrossCheckedBySturm) {
  Prng rng(99);
  auto cfg = radii_config(64);
  cfg.validate = true;
  for (int degree : {4, 7, 12}) {
    const Poly p = random_squarefree_poly(degree, 10, rng);
    const auto report = find_real_roots(p, cfg);
    EXPECT_EQ(static_cast<int>(report.roots.size()),
              SturmChain(p).distinct_real_roots())
        << "degree " << degree;
  }
}

TEST(IsolateStrategy, ZeroAndLinearEdgeCases) {
  // Zero root reported exactly; linear inputs solved by ceiling division.
  const auto zero = find_real_roots(poly_from_integer_roots({0, 2}),
                                    radii_config(10));
  ASSERT_EQ(zero.roots.size(), 2u);
  EXPECT_EQ(zero.roots[0], BigInt(0));
  EXPECT_EQ(zero.roots[1], BigInt(2) << 10);

  RootFinderConfig paper_cfg;
  paper_cfg.mu_bits = 20;
  const Poly lin{-3, 2};  // root 3/2
  expect_same_report(find_real_roots(lin, paper_cfg),
                     find_real_roots(lin, radii_config(20)), "2x-3");
}

// --- the kRadii strategy, parallel ------------------------------------------

TEST(IsolateStrategy, ParallelBitIdenticalAcrossThreadCounts) {
  Prng rng(5);
  const auto input = paper_input(12, rng);
  const auto cfg = radii_config(53);
  const auto sequential = find_real_roots(input.poly, cfg);
  for (int threads : {1, 2, 8}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    const auto run = find_real_roots_parallel(input.poly, cfg, pc);
    expect_same_report(sequential, run.report, "radii parallel");
  }
  RootFinderConfig paper_cfg;
  paper_cfg.mu_bits = 53;
  EXPECT_EQ(sequential.roots, find_real_roots(input.poly, paper_cfg).roots);
}

TEST(IsolateStrategy, ParallelHandlesComplexRootsAndTagsRefineTasks) {
  const Poly mign = mignotte(13, 3);
  const auto cfg = radii_config(64);
  const auto sequential = find_real_roots(mign, cfg);
  ParallelConfig pc;
  pc.num_threads = 4;
  const auto run = find_real_roots_parallel(mign, cfg, pc);
  EXPECT_EQ(run.report.roots, sequential.roots);
  // The trace records the staged kRefine tasks (one per non-exact cell).
  bool saw_refine = false;
  for (const auto& t : run.trace.tasks) {
    if (t.kind == TaskKind::kRefine) saw_refine = true;
  }
  EXPECT_TRUE(saw_refine);
}

}  // namespace
}  // namespace pr
