// The driver of the paper strategy: one dynamically scheduled task program
// (Section 3 of the paper).
//
// Builds one task graph covering both stages of the algorithm --
//   stage 1: the remainder/quotient sequence, parallelized across the
//            coefficient computations of Eq. (18) (Section 3.1), with a
//            configurable grain;
//   stage 2: the tree computations (Section 3.2): COMPUTEPOLY as prep ->
//            two matrix products of four entry-tasks each -> publish,
//            SORT, PREINTERVAL (one task per interleaving point) and
//            INTERVAL (one task per root), with the dependency structure
//            of Fig. 3.2 --
// and executes it on a dynamic TaskPool with any number of worker
// threads; at one thread the pool runs every task inline on the caller,
// which is what find_real_roots() does.  Each combine's prep task makes
// the node's one modular-vs-exact decision at run time.  The execution
// also records a TaskTrace with deterministic per-task costs, which the
// discrete-event simulator (src/sim/) replays under arbitrary simulated
// processor counts.
//
// Results are bit-identical for every thread count and grain:
// each task is a pure function of its dependencies' outputs.
#pragma once

#include <memory>

#include "core/root_finder.hpp"
#include "sched/task_pool.hpp"
#include "sched/trace.hpp"

namespace pr {

/// Grain of the stage-1 (remainder sequence) parallelization.
enum class RemainderGrain {
  kPerIteration,    ///< one task computes Q_i and all of F_{i+1}
  kPerCoefficient,  ///< one task per coefficient of F_{i+1} (default)
  kPerOperation,    ///< one task per multiplication of Eq. 18 (the paper's
                    ///< finest grain: "each of these 5(n-i) operations")
  kSequential,      ///< the whole stage as one exact task (the paper's
                    ///< run-time option, Section 3: "the implementation
                    ///< allows this stage to be executed sequentially, if
                    ///< so desired"); also keeps stage 1 off the modular
                    ///< path
};

struct ParallelConfig {
  int num_threads = 1;
  RemainderGrain grain = RemainderGrain::kPerCoefficient;
  /// Grain coarsening: how many consecutive micro-units of the same kind
  /// are fused into one scheduled task (>= 1).  Applies to the
  /// fine-grained task families -- kCoeff coefficients, the kMulOp /
  /// kCombineOp operation tasks of the per-operation grain, and the
  /// kPreInterval point analyses -- trading scheduling overhead against
  /// available parallelism, the paper's Section 3.1/5.2 granularity
  /// knob made explicit.  Results are bit-identical for every value.
  int grain_chunk = 1;
  /// Not a setting: TaskPool has one queue.  Kept only so that
  /// perfbench/replay.cpp compiles unchanged (a compatibility no-op; drop
  /// it the next time the benchmark itself changes).
  PoolPolicy pool_policy = PoolPolicy::kCentralQueue;
};

struct ParallelRunResult {
  RootReport report;
  TaskTrace trace;          ///< replayable DAG with per-task costs
  TaskPoolStats pool;
  /// No task graph produced the answer: a linear input or the Sturm
  /// fallback (the trace is then empty).
  bool used_sequential_fallback = false;
};

/// Finds all real roots of p (find_real_roots() is this call with the
/// default ParallelConfig).  A remainder sequence that vanishes early
/// (repeated roots) restages the graph once on the squarefree part; any
/// other non-normal sequence or non-real root goes to the Sturm fallback
/// (RootFinderConfig::allow_sturm_fallback).
ParallelRunResult find_real_roots_parallel(const Poly& p,
                                           const RootFinderConfig& config,
                                           const ParallelConfig& parallel);

/// One polynomial's run staged into a caller-owned TaskGraph, so that
/// several runs can share a single TaskPool execution -- the batching
/// seam the RootService driver (src/service/) is built on.  The object
/// owns all of the run's mutable state; it must outlive the graph's
/// execution, and finish_staged_run() may be called exactly once, after
/// the pool ran the graph to completion.
class StagedParallelRun {
 public:
  StagedParallelRun(const StagedParallelRun&) = delete;
  StagedParallelRun& operator=(const StagedParallelRun&) = delete;
  ~StagedParallelRun();

  /// Compatibility no-op for callers written against the retired
  /// tree-piece API: always 1 (the whole tree is one untagged graph).
  int num_pieces() const { return 1; }

 private:
  StagedParallelRun();
  friend std::unique_ptr<StagedParallelRun> stage_parallel_run(
      const Poly& p, const RootFinderConfig& config,
      const ParallelConfig& parallel, TaskGraph& graph, int, bool);
  friend RootReport finish_staged_run(StagedParallelRun& run);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Builds the full two-stage task graph for `p` into `graph` (which may
/// already hold other runs' tasks).  Preconditions: p.degree() >= 2
/// (callers solve the linear case directly, as find_real_roots does).
/// A NonNormalSequence raised by the staged tasks (repeated roots,
/// non-real roots) surfaces from TaskPool::run; the caller owns the
/// fallback policy.  The two trailing parameters are ignored;
/// they keep call sites written against the retired tree-piece API
/// (tag offset, forced tags) compiling.
std::unique_ptr<StagedParallelRun> stage_parallel_run(
    const Poly& p, const RootFinderConfig& config,
    const ParallelConfig& parallel, TaskGraph& graph, int = 0, bool = false);

/// Extracts the RootReport after the shared graph ran to completion, and
/// certifies its cells (certify_cells) when RootFinderConfig::validate
/// was set.
RootReport finish_staged_run(StagedParallelRun& run);

}  // namespace pr
