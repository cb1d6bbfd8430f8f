// The traced run's two replays of a measured pass.
//
// replay_pass() re-derives every answer of the pass by calling the
// sequential driver's steps through the library's public functions, one
// span per call, so wall time splits into layers.  sched_pass() re-runs the
// pass's cold work on the task-parallel scheduler exactly as the service
// does and collects the pool's counters.  Both return their answers, which
// the correctness gate compares bit for bit with the service's.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/interval_solver.hpp"
#include "instr/counters.hpp"
#include "perfbench.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayCounts {
  std::size_t requests = 0;
  std::size_t cold = 0;             ///< cold solves replayed
  std::size_t stage1_runs = 0;      ///< remainder sequences computed
  std::size_t stage1_modular = 0;   ///< of those, answered multimodularly
  std::size_t combines = 0;         ///< internal tree-node combines
  pr::IntervalStats interval;       ///< node roots
  pr::instr::PhaseCounts ops;       ///< BigInt operation deltas
  pr::instr::ModularCounts modular; ///< modular counter deltas
};

struct SchedCounts {
  std::size_t runs = 0;        ///< TaskPool executions
  std::size_t fallbacks = 0;   ///< co-staged waves demoted to per-line runs
  std::size_t tasks = 0;
  std::size_t steals = 0;
  double wall_s = 0;
  double exec_s = 0;
  double idle_s = 0;
  double lock_wait_s = 0;
  double setup_s = 0;
};

/// Replays `measured` (a pass of the pool-thread service) with spans on
/// Track::kReplay.  Each request follows the path the service reported:
/// a cold solve, or a copy of an earlier answer for a cache hit or a line
/// the batch deduplicated.
PassResult replay_pass(Stream& stream, const PassResult& measured,
                       const pr::RootFinderConfig& finder, SpanLog& log,
                       ReplayCounts& counts);

/// Re-runs the cold work of `measured` on the service's scheduler
/// configuration: find_real_roots_parallel per cold submit, and one
/// co-staged TaskGraph per run_batch wave (stage_parallel_run +
/// finish_staged_run, with run_batch's per-line fallback).
PassResult sched_pass(Stream& stream, const PassResult& measured,
                      const pr::service::ServiceConfig& config, SpanLog& log,
                      SchedCounts& counts);

}  // namespace perfbench
