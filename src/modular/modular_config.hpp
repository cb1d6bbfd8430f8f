// Configuration of the multimodular fast paths.
//
// The exact BigInt pipeline remains the default; the multimodular paths
// are opt-in (enabled flag) and produce bit-identical results -- every
// reconstruction is exact under a proven coefficient bound, and any
// irregularity (repeated roots, exhausted prime replacements, a failed
// held-out-prime check) abandons the fast path and recomputes exactly.
#pragma once

#include <cstdint>
#include <vector>

namespace pr::modular {

struct ModularConfig {
  /// Master switch for both fast paths (remainder sequence and the
  /// tree-stage matrix combines).  Off by default: the exact path is the
  /// verified baseline.  There is no thread count here: the one-call
  /// entry points run inline, and the driver schedules modular work as
  /// graph tasks on its own pool (four image blocks per combine node).
  bool enabled = false;

  /// Degrees below this use the exact remainder sequence (word-sized
  /// coefficients do not amortize the CRT setup).
  int min_degree = 24;

  /// A tree-node combine goes multimodular only when the bound on its
  /// result coefficients is at least this many bits.  Deliberately low: a
  /// node whose *result* is small can still carry an expensive exact
  /// division by a huge s = c_k^2 c_{k-1}^2, which the modular path
  /// sidesteps -- the cost gate below makes the real call.
  std::size_t min_combine_bits = 1024;

  /// Above the bit floor, a combine still goes multimodular only when a
  /// word-multiply cost model says it beats the exact combine by a clear
  /// margin (small matrices with huge scalars lose to the per-prime
  /// reduction cost even when their coefficients are enormous).  Test
  /// seam: off forces every floor-clearing combine onto the modular path.
  bool combine_cost_gate = true;

  /// Route mod-p convolutions above the cost model's length cutoff through
  /// the NTT (modular/ntt.hpp).  Bit-identical either way; off pins every
  /// convolution to schoolbook (differential tests, cost-model A/B runs).
  bool use_ntt = true;

  /// Batch several per-prime PRS images into one TaskPool task when the
  /// per-image cost model says a single image is too small to amortize
  /// dispatch (below ~degree 40).  Purely a scheduling change; the task
  /// work floor is a compiled constant of modular/modular_prs.cpp.
  bool batch_images = true;

  /// Fan the per-coefficient Garner dots of one CRT level out across the
  /// pool only when coefficient_count x prime_count clears this threshold
  /// (levels below it run the wave loop inline on one task).  Above it,
  /// the per-level wave model (crt_level_waves, modular/modular_prs.hpp)
  /// sizes the fan-out to the level's Garner work, quadratic in its
  /// prime count.
  std::size_t crt_wave_min_work = 4096;

  /// Test seam: moduli to try *before* the deterministic table (each must
  /// be an odd prime below 2^62).  Lets tests force a known-bad first
  /// prime to exercise the replacement path.
  std::vector<std::uint64_t> forced_primes;
};

}  // namespace pr::modular
