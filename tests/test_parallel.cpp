// The task-parallel driver (Section 3): determinism across thread counts
// and grains, DAG structure, and trace recording.
#include "core/parallel_driver.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "poly/remainder_sequence.hpp"
#include "service/root_service.hpp"
#include "sim/des.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

RootFinderConfig base_config(std::size_t mu) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  return cfg;
}

class GrainModes : public ::testing::TestWithParam<RemainderGrain> {};

TEST_P(GrainModes, MatchesSequentialBitForBit) {
  // Seed chosen so every generated charpoly is squarefree (small 0/1
  // matrices frequently have repeated eigenvalues, which would make the
  // driver restage on the squarefree part).
  Prng rng(99);
  for (int trial = 0; trial < 3; ++trial) {
    const auto input = paper_input(6 + 4 * trial, rng);
    const RootFinderConfig cfg = base_config(35);
    const auto seq = find_real_roots(input.poly, cfg);
    ParallelConfig pc;
    pc.grain = GetParam();
    for (int threads : {1, 2, 4}) {
      pc.num_threads = threads;
      const auto par = find_real_roots_parallel(input.poly, cfg, pc);
      EXPECT_FALSE(par.used_sequential_fallback);
      EXPECT_EQ(par.report.roots, seq.roots)
          << "threads=" << threads << " n=" << input.poly.degree();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGrains, GrainModes,
    ::testing::Values(RemainderGrain::kPerIteration,
                      RemainderGrain::kPerCoefficient,
                      RemainderGrain::kPerOperation,
                      RemainderGrain::kSequential),
    [](const auto& param_info) {
      switch (param_info.param) {
        case RemainderGrain::kPerIteration: return "PerIteration";
        case RemainderGrain::kPerCoefficient: return "PerCoefficient";
        case RemainderGrain::kPerOperation: return "PerOperation";
        default: return "Sequential";
      }
    });

TEST(ParallelDriver, SequentialRemainderOption) {
  Prng rng(9);
  const auto input = paper_input(10, rng);
  const RootFinderConfig cfg = base_config(24);
  ParallelConfig pc;
  pc.grain = RemainderGrain::kSequential;
  pc.num_threads = 2;
  const auto par = find_real_roots_parallel(input.poly, cfg, pc);
  const auto seq = find_real_roots(input.poly, cfg);
  EXPECT_EQ(par.report.roots, seq.roots);
}

TEST(ParallelDriver, TraceHasPaperTaskKinds) {
  Prng rng(77);
  const auto input = paper_input(9, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(20), ParallelConfig{});
  std::map<TaskKind, int> kinds;
  for (const auto& t : run.trace.tasks) kinds[t.kind]++;
  EXPECT_GT(kinds[TaskKind::kQuotient], 0);
  EXPECT_GT(kinds[TaskKind::kCoeff], 0);
  EXPECT_GT(kinds[TaskKind::kMatEntry1], 0);
  EXPECT_GT(kinds[TaskKind::kMatEntry2], 0);
  EXPECT_GT(kinds[TaskKind::kSort], 0);
  EXPECT_GT(kinds[TaskKind::kPreInterval], 0);
  EXPECT_GT(kinds[TaskKind::kInterval], 0);
  EXPECT_GT(kinds[TaskKind::kLinRoot], 0);
  // Interval tasks: one per root per internal node.
  EXPECT_GE(kinds[TaskKind::kInterval], input.poly.degree());
}

TEST(ParallelDriver, TraceCostsCoverRealWork) {
  Prng rng(31);
  const auto input = paper_input(12, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(40), ParallelConfig{});
  EXPECT_GT(run.trace.total_cost(), 1000u);
  EXPECT_LT(run.trace.critical_path(), run.trace.total_cost());
}

TEST(ParallelDriver, TraceIsDeterministicAcrossThreadCounts) {
  Prng rng(55);
  const auto input = paper_input(8, rng);
  const RootFinderConfig cfg = base_config(30);
  ParallelConfig p1, p4;
  p1.num_threads = 1;
  p4.num_threads = 4;
  const auto run1 = find_real_roots_parallel(input.poly, cfg, p1);
  const auto run4 = find_real_roots_parallel(input.poly, cfg, p4);
  ASSERT_EQ(run1.trace.size(), run4.trace.size());
  for (std::size_t i = 0; i < run1.trace.size(); ++i) {
    EXPECT_EQ(run1.trace.tasks[i].cost, run4.trace.tasks[i].cost)
        << "task " << i << " cost depends on thread count";
  }
}

TEST(ParallelDriver, SimulatedSpeedupGrowsWithProcessors) {
  Prng rng(41);
  const auto input = paper_input(20, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(60), ParallelConfig{});
  const auto sp = simulate_speedups(run.trace, {1, 2, 4, 8});
  EXPECT_NEAR(sp[0], 1.0, 1e-9);
  EXPECT_GT(sp[1], 1.5);
  EXPECT_GT(sp[2], sp[1]);
  EXPECT_GE(sp[3], sp[2] * 0.99);
}

// The sequence of {2, 2, 5} vanishes early; the driver restages the graph
// once on the squarefree part (x-2)(x-5), which answers with the roots, and
// the factors supply the multiplicities.
TEST(ParallelDriver, RepeatedRootsRestageSquarefreePart) {
  const Poly p = poly_from_integer_roots({2, 2, 5});
  const auto run =
      find_real_roots_parallel(p, base_config(12), ParallelConfig{});
  EXPECT_TRUE(run.report.squarefree_reduced);
  EXPECT_FALSE(run.report.used_sturm_fallback);
  EXPECT_FALSE(run.used_sequential_fallback);
  EXPECT_GT(run.trace.size(), 0u);
  EXPECT_EQ(run.report.degree, 3);
  EXPECT_EQ(run.report.distinct_roots, 2);
  EXPECT_EQ(run.report.roots,
            (std::vector<BigInt>{BigInt(2) << 12, BigInt(5) << 12}));
  EXPECT_EQ(run.report.multiplicities, (std::vector<unsigned>{2, 1}));
}

TEST(ParallelDriver, ComplexRootsDelegateToSequential) {
  const Poly p{1, 0, 0, 0, 1};  // x^4 + 1
  const auto run =
      find_real_roots_parallel(p, base_config(12), ParallelConfig{});
  EXPECT_TRUE(run.used_sequential_fallback);
  EXPECT_TRUE(run.report.roots.empty());
}

TEST(ParallelDriver, LinearInputDelegates) {
  const auto run =
      find_real_roots_parallel(Poly{-3, 2}, base_config(8), ParallelConfig{});
  EXPECT_TRUE(run.used_sequential_fallback);
  ASSERT_EQ(run.report.roots.size(), 1u);
}

TEST(ParallelDriver, WilkinsonParallel) {
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig pc;
  pc.num_threads = 3;
  const auto run = find_real_roots_parallel(wilkinson(14), cfg, pc);
  ASSERT_EQ(run.report.roots.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(run.report.roots[static_cast<std::size_t>(i)],
              BigInt(static_cast<long long>(i + 1)) << 16);
  }
}

TEST(ParallelDriver, InherentParallelismIsSubstantial) {
  Prng rng(99);
  const auto input = paper_input(18, rng);
  const auto run =
      find_real_roots_parallel(input.poly, base_config(53), ParallelConfig{});
  const auto prof = parallelism_profile(run.trace);
  EXPECT_GT(prof.average, 3.0) << "the DAG should expose real parallelism";
  EXPECT_GE(prof.peak, 8u);
  EXPECT_GT(prof.at_least[1], 0.3) << ">= 2 tasks most of the time";
}

// The determinism matrix: RootReports must be bit-identical across every
// {grain} x {thread count} x {grain chunk} combination,
// because each task is a pure function of its dependencies' outputs and
// chunking only changes how units are packed into scheduled tasks.
TEST(ParallelDriver, DeterministicAcrossPolicyThreadsAndChunks) {
  struct Workload {
    const char* name;
    Poly poly;
  };
  Prng rng(99);
  const std::vector<Workload> workloads = {
      {"wilkinson", wilkinson(12)},
      {"berkowitz", paper_input(10, rng).poly},
  };
  const RootFinderConfig cfg = base_config(24);
  for (const auto& w : workloads) {
    const auto ref = find_real_roots(w.poly, cfg);
    for (RemainderGrain grain :
         {RemainderGrain::kPerCoefficient, RemainderGrain::kPerOperation}) {
      for (int threads : {1, 2, 8}) {
        for (int chunk : {1, 4}) {
          ParallelConfig pc;
          pc.grain = grain;
          pc.num_threads = threads;
          pc.grain_chunk = chunk;
          const auto run = find_real_roots_parallel(w.poly, cfg, pc);
          EXPECT_FALSE(run.used_sequential_fallback);
          EXPECT_EQ(run.report.roots, ref.roots)
              << w.name << " threads=" << threads << " chunk=" << chunk;
          EXPECT_EQ(run.report.multiplicities, ref.multiplicities) << w.name;
        }
      }
    }
  }
}

// Forces stage 1 and every internal combine that needs at least three
// primes onto the multimodular path even at the small degrees these tests
// use.
RootFinderConfig forced_modular_config(std::size_t mu) {
  RootFinderConfig cfg = base_config(mu);
  cfg.modular.enabled = true;
  cfg.modular.min_degree = 2;
  cfg.modular.min_combine_bits = 1;
  cfg.modular.combine_cost_gate = false;
  return cfg;
}

std::string describe(const char* name, bool modular, int threads) {
  return std::string(name) + " modular=" + (modular ? "on" : "off") +
         " threads=" + std::to_string(threads);
}

// RootReports are bit-identical to the one-thread exact run under every
// {thread count} x {modular off/on} combination.
TEST(ParallelDriver, DeterministicAcrossThreadsPoliciesAndModular) {
  struct Workload {
    const char* name;
    Poly poly;
  };
  Prng rng(99);
  const std::vector<Workload> workloads = {
      {"wilkinson", wilkinson(12)},
      {"berkowitz", paper_input(10, rng).poly},
  };
  for (const auto& w : workloads) {
    const auto ref = find_real_roots(w.poly, base_config(24));
    for (bool modular : {false, true}) {
      const RootFinderConfig cfg =
          modular ? forced_modular_config(24) : base_config(24);
      for (int threads : {1, 2, 4, 8}) {
        ParallelConfig pc;
        pc.num_threads = threads;
        const auto run = find_real_roots_parallel(w.poly, cfg, pc);
        const std::string where = describe(w.name, modular, threads);
        EXPECT_FALSE(run.used_sequential_fallback) << where;
        EXPECT_EQ(run.report.roots, ref.roots) << where;
        EXPECT_EQ(run.report.multiplicities, ref.multiplicities) << where;
      }
    }
  }
}

TEST(ParallelDriver, ModularPathMatchesSequential) {
  Prng rng(31);
  const auto input = paper_input(12, rng);
  const auto ref = find_real_roots(input.poly, base_config(40));
  ParallelConfig pc;
  pc.num_threads = 4;
  const auto run =
      find_real_roots_parallel(input.poly, forced_modular_config(40), pc);
  EXPECT_FALSE(run.used_sequential_fallback);
  EXPECT_EQ(run.report.roots, ref.roots);
}

TEST(ParallelDriver, WilkinsonAcrossThreadCounts) {
  const Poly p = wilkinson(12);
  const auto ref = find_real_roots(p, base_config(16));
  for (bool modular : {false, true}) {
    const RootFinderConfig cfg =
        modular ? forced_modular_config(16) : base_config(16);
    for (int threads : {2, 5, 8}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const auto run = find_real_roots_parallel(p, cfg, pc);
      const std::string where = describe("wilkinson", modular, threads);
      EXPECT_FALSE(run.used_sequential_fallback) << where;
      EXPECT_EQ(run.report.roots, ref.roots) << where;
      EXPECT_EQ(run.report.multiplicities, ref.multiplicities) << where;
    }
  }
}

// Repeated roots restage on the squarefree part and give the same answer
// under every configuration; a squarefree input next to it is not reduced.
TEST(ParallelDriver, RepeatedRootFallbackAcrossThreadsPoliciesAndModular) {
  Prng rng(9);
  const auto input = paper_input(10, rng);
  const Poly rep = poly_from_integer_roots({2, 2, 5});
  const auto ref = find_real_roots(rep, base_config(12));
  ASSERT_EQ(ref.roots,
            (std::vector<BigInt>{BigInt(2) << 12, BigInt(5) << 12}));
  ASSERT_EQ(ref.multiplicities, (std::vector<unsigned>{2, 1}));
  for (bool modular : {false, true}) {
    const RootFinderConfig cfg =
        modular ? forced_modular_config(12) : base_config(12);
    for (int threads : {1, 2, 4, 8}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const std::string where = describe("repeated", modular, threads);
      const auto fb = find_real_roots_parallel(rep, cfg, pc);
      EXPECT_TRUE(fb.report.squarefree_reduced) << where;
      EXPECT_FALSE(fb.report.used_sturm_fallback) << where;
      EXPECT_EQ(fb.report.roots, ref.roots) << where;
      EXPECT_EQ(fb.report.multiplicities, ref.multiplicities) << where;
      const auto run = find_real_roots_parallel(input.poly, cfg, pc);
      EXPECT_FALSE(run.report.squarefree_reduced) << where;
      EXPECT_FALSE(run.used_sequential_fallback) << where;
    }
  }
}

// Regression: interval tasks of low tree nodes used to run before stage 1
// had checked for non-real roots and fail with "unsorted interleave",
// which rejected the request instead of routing it to the Sturm fallback.
TEST(ParallelDriver, ComplexRootInputFallsBackInsteadOfFailing) {
  Prng rng(77);
  const Poly p = random_squarefree_poly(24, 16, rng);
  const RootFinderConfig cfg = base_config(107);
  const auto ref = find_real_roots(p, cfg);
  for (int rep = 0; rep < 40; ++rep) {
    ParallelConfig pc;
    pc.num_threads = 4;
    const auto run = find_real_roots_parallel(p, cfg, pc);
    EXPECT_TRUE(run.used_sequential_fallback) << "rep " << rep;
    EXPECT_EQ(run.report.roots, ref.roots) << "rep " << rep;
    EXPECT_EQ(run.report.multiplicities, ref.multiplicities);
  }
  // The same input co-staged with a real-rooted one in a service batch.
  service::ServiceConfig scfg;
  scfg.finder = cfg;
  scfg.parallel.num_threads = 4;
  service::RootService service(scfg);
  Prng rng2(5);
  const Poly other = paper_input(12, rng2).poly;
  const auto results =
      service.run_batch({p.to_string(), other.to_string()});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[0].report.roots, ref.roots);
  EXPECT_EQ(results[0].report.multiplicities, ref.multiplicities);
  EXPECT_EQ(results[1].report.roots, find_real_roots(other, cfg).roots);
}

// Exact stage 1 rejects non-real roots at the first iteration whose new
// leading coefficient changes sign.  For a normal sequence that happens
// exactly when the Sturm count of the whole sequence falls short of the
// degree -- on every grain.
TEST(ParallelDriver, StageOneRejectsNonRealRootsExactlyWhenSturmCountFallsShort) {
  std::vector<Poly> inputs;
  Prng rng(0x51a9);
  for (int degree : {3, 4, 5, 6, 8, 12, 16, 24}) {
    for (int k = 0; k < 4; ++k) {
      inputs.push_back(random_squarefree_poly(degree, 16, rng));
    }
  }
  Prng probe(77);
  inputs.push_back(random_squarefree_poly(24, 16, probe));
  Prng gen(99);
  inputs.push_back(wilkinson(12));
  inputs.push_back(chebyshev_t(15));
  inputs.push_back(hermite(10));
  inputs.push_back(paper_input(10, gen).poly);
  inputs.push_back(random_jacobi_poly(20, 9, gen));
  inputs.push_back(mignotte(7, 12));
  inputs.push_back(Poly{1, 0, 0, 0, 1});  // x^4 + 1

  RootFinderConfig cfg = base_config(32);
  cfg.allow_sturm_fallback = false;
  int rejected = 0;
  int accepted = 0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Poly& p = inputs[k];
    RemainderSequence rs;
    try {
      rs = compute_remainder_sequence(p.primitive_part());
    } catch (const NonNormalSequence&) {
      continue;  // not normal: the premature degree drop decides first
    }
    if (rs.extended()) continue;  // repeated roots restage instead
    const bool non_real = real_root_count(rs) != p.degree();
    (non_real ? rejected : accepted) += 1;
    for (RemainderGrain grain :
         {RemainderGrain::kPerIteration, RemainderGrain::kPerCoefficient,
          RemainderGrain::kPerOperation}) {
      ParallelConfig pc;
      pc.grain = grain;
      bool threw = false;
      try {
        (void)find_real_roots_parallel(p, cfg, pc);
      } catch (const NonNormalSequence& e) {
        EXPECT_STREQ(e.what(), "input has non-real roots") << "input " << k;
        threw = true;
      }
      EXPECT_EQ(threw, non_real)
          << "input " << k << " grain " << static_cast<int>(grain);
    }
  }
  EXPECT_GT(rejected, 5);
  EXPECT_GT(accepted, 3);
}

/// Total operation counts of one call, over every thread.
template <typename F>
instr::OpCounts ops_of(F&& f) {
  instr::reset_all();
  f();
  return instr::aggregate().total();
}

// RootFinderConfig::validate performs the Sturm cross-check on
// multi-thread runs too: through find_real_roots_parallel and through a
// co-staged run_batch.  The cross-check is the only difference between
// the two runs of each pair, so it shows as extra operations.
TEST(ParallelDriver, ValidateCrossChecksAtFourThreads) {
  Prng rng(12);
  const Poly p = paper_input(12, rng).poly;
  const Poly q = paper_input(10, rng).poly;
  RootFinderConfig plain = base_config(40);
  RootFinderConfig checked = plain;
  checked.validate = true;
  ParallelConfig pc;
  pc.num_threads = 4;

  RootReport a, b;
  const auto plain_ops =
      ops_of([&] { a = find_real_roots_parallel(p, plain, pc).report; });
  const auto checked_ops =
      ops_of([&] { b = find_real_roots_parallel(p, checked, pc).report; });
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_GT(checked_ops.mul_count, plain_ops.mul_count);

  const auto batch = [&](const RootFinderConfig& cfg) {
    service::ServiceConfig scfg;
    scfg.finder = cfg;
    scfg.parallel = pc;
    scfg.cache_enabled = false;
    service::RootService service(scfg);
    std::vector<service::ServiceResult> results;
    const auto ops = ops_of(
        [&] { results = service.run_batch({p.to_string(), q.to_string()}); });
    EXPECT_EQ(service.stats().batch_runs, 1u) << "not co-staged";
    for (const auto& r : results) EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(results[0].report.roots, a.roots);
    return ops;
  };
  const auto batch_plain = batch(plain);
  const auto batch_checked = batch(checked);
  EXPECT_GT(batch_checked.mul_count, batch_plain.mul_count);
}

TEST(ParallelDriver, GrainChunkShrinksTraceKeepsRoots) {
  Prng rng(88);
  const auto input = paper_input(12, rng);
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig fine, chunked;
  fine.grain = RemainderGrain::kPerOperation;
  chunked.grain = RemainderGrain::kPerOperation;
  chunked.grain_chunk = 4;
  const auto runf = find_real_roots_parallel(input.poly, cfg, fine);
  const auto runc = find_real_roots_parallel(input.poly, cfg, chunked);
  EXPECT_EQ(runf.report.roots, runc.report.roots);
  // Chunking fuses micro-tasks, so the DAG must get much smaller (the
  // tree-stage tasks are unaffected, so less than the full 4x) while
  // total recorded work stays comparable (same arithmetic, fewer tasks).
  EXPECT_LT(runc.trace.size() * 3, runf.trace.size() * 2);
  EXPECT_GT(runc.trace.total_cost() * 2, runf.trace.total_cost());
}

TEST(ParallelDriver, RejectsBadGrainChunk) {
  ParallelConfig pc;
  pc.grain_chunk = 0;
  EXPECT_THROW(
      find_real_roots_parallel(wilkinson(6), base_config(12), pc),
      InvalidArgument);
}

TEST(ParallelDriver, PoolStatsExposeTimelineAndCounters) {
  Prng rng(7);
  const auto input = paper_input(10, rng);
  ParallelConfig pc;
  pc.num_threads = 2;
  const auto run = find_real_roots_parallel(input.poly, base_config(30), pc);
  EXPECT_FALSE(run.used_sequential_fallback);
  EXPECT_EQ(run.pool.tasks_run, run.trace.size());
  EXPECT_EQ(run.pool.timeline.entries.size(), run.trace.size());
  ASSERT_EQ(run.pool.workers.size(), 2u);
  std::size_t worker_tasks = 0;
  for (const auto& w : run.pool.workers) worker_tasks += w.tasks;
  EXPECT_EQ(worker_tasks, run.pool.tasks_run);
  EXPECT_GT(run.pool.wall_seconds, 0.0);
  EXPECT_GE(run.pool.setup_seconds, 0.0);
}

TEST(ParallelDriver, PerOperationGrainHasMoreTasks) {
  Prng rng(88);
  const auto input = paper_input(12, rng);
  const RootFinderConfig cfg = base_config(16);
  ParallelConfig coarse, fine;
  coarse.grain = RemainderGrain::kPerIteration;
  fine.grain = RemainderGrain::kPerOperation;
  const auto runc = find_real_roots_parallel(input.poly, cfg, coarse);
  const auto runf = find_real_roots_parallel(input.poly, cfg, fine);
  EXPECT_GT(runf.trace.size(), runc.trace.size() + 100);
  EXPECT_EQ(runc.report.roots, runf.report.roots);
}

}  // namespace
}  // namespace pr
