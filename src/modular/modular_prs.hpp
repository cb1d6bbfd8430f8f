// Multimodular fast path for the subresultant remainder sequence.
//
// Instead of running the Eq. 15-18 recurrences on ever-growing BigInt
// coefficients, compute the whole sequence modulo many word-sized primes
// (each image is an independent, allocation-light word-arithmetic pass --
// the embarrassingly parallel fan-out the TaskPool exploits) and
// reconstruct the coefficients of F_2..F_n by CRT.
//
// Reconstruction is LEVEL-SEQUENTIAL with an induction bound: once
// F_{i-1} and F_i are known exactly, every coefficient of
//
//   F_{i+1} = (Q_i F_i - c_i^2 F_{i-1}) / c_{i-1}^2        (Eqs. 15-18)
//
// is bounded by the actual operand bit lengths -- typically 2-5x below
// the a-priori Hadamard bound, and CRT cost is quadratic in the prime
// count, so the induction bound is the difference between the fast path
// winning and losing.  The Hadamard bound of crt.hpp still sizes the slot
// set (it is a true upper bound, so the induction bound can never run out
// of primes) and caps each level's bound.  The quotients Q_i fall out of
// the same pass *exactly* (they feed the bound), so the result is
// bit-identical to compute_remainder_sequence() on every normal input.
//
// A prime p is *bad* when some image leading coefficient vanishes mod p
// while the true F_i does not -- the image recurrence then diverges from
// the reduction of the exact sequence.  Bad primes are detected exactly at
// that point (lc == 0) and replaced from the deterministic table; primes
// dividing lc(F_0) * lc(F_1) are already skipped at selection time.  A
// fully vanishing image remainder signals repeated roots (the extended
// sequence) -- we hand the input back to the exact path, which owns the
// extension logic, rather than guessing.  The same happens when
// replacements exceed a small cap (a non-normal input makes *every* prime
// look bad) or when the held-out-prime check fails.
//
// The slot API (run_image / prepare_crt / run_crt) exists so the driver
// can schedule each slot and wave as a task; the one-call wrapper drives
// the same slots and waves inline on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "modular/crt.hpp"
#include "modular/modular_config.hpp"
#include "poly/remainder_sequence.hpp"

namespace pr::modular {

class MultimodularPrs {
 public:
  /// Chooses the prime slots deterministically from f0 (degree >= 1).
  MultimodularPrs(const Poly& f0, const ModularConfig& cfg);

  /// False when the input is too small for the fast path to pay off
  /// (degree below cfg.min_degree, or fewer than 3 primes needed); the
  /// caller should use the exact path.
  bool worthwhile() const { return worthwhile_; }

  /// The slots whose images should be computed eagerly (and in parallel).
  /// This is a ~60%-of-Hadamard prefix of the selected primes: measured
  /// sequences use roughly half the a-priori bound, so eagerly imaging the
  /// full Hadamard-sized slot set wastes almost half the image work.  The
  /// remaining slots stay selected (the CRT basis covers them) and are
  /// imaged inline by run_crt on the rare input whose induction bound
  /// climbs past the eager prefix.
  std::size_t num_slots() const { return eager_; }

  /// Computes slot's per-prime image of the whole sequence, replacing bad
  /// primes as needed.  Distinct slots may run concurrently; never throws
  /// (irregularities latch the fallback flag instead).
  void run_image(std::size_t slot);

  // --- image batching (cfg.batch_images) -----------------------------------
  // One task per prime is too fine below ~degree 40: a single image costs
  // ~6 n^2 word multiplies, which rivals task dispatch (~2500 units, the
  // combine gate's measured constant).  The driver asks for a batch
  // size, schedules num_image_tasks() tasks, and each one images a
  // contiguous run of slots.  Purely a scheduling regrouping: the same
  // run_image calls happen in the same per-slot order within a batch.

  /// Slots per image task for the given worker count: enough images to
  /// clear the dispatch-amortization floor, but never so many that fewer
  /// than ~2 tasks per worker remain.  1 when batching is disabled.
  std::size_t image_batch(int threads) const;
  /// ceil(num_slots / image_batch).
  std::size_t num_image_tasks(int threads) const;
  /// Images slots [t*B, min((t+1)*B, num_slots)), B = image_batch(threads).
  void run_image_batch(std::size_t task, int threads);

  // --- CRT reconstruction ---------------------------------------------------
  // Reconstruction stays LEVEL-SEQUENTIAL across levels (the induction
  // bound needs level i exact before it can size level i+1), but the
  // per-coefficient Garner dots *within* one level are independent.  The
  // split API lets the driver chain, per level i in [1, n-1]:
  //
  //   prepare_level(i)  ->  run_crt_wave(i, 0..W-1)  ->  finish_level(i)
  //
  // with the wave tasks fanned out on the pool.  Waves only read shared
  // state (slots_, basis_, the level operands); prepare_level owns every
  // mutation, including inline image escalation, so the graph edges are
  // the only synchronization needed.  A level whose coefficient x prime
  // volume is below cfg.crt_wave_min_work collapses to one wave.

  /// After *all* eager images: builds the CRT basis over every selected
  /// slot and arms the level machinery.  wave_width is the number of wave
  /// tasks the driver will schedule per level (>= 1; a width the level's
  /// volume does not justify is ignored level by level).
  void prepare_crt(std::size_t wave_width);

  /// Number of reconstruction levels (level i builds F_{i+1}).
  std::size_t num_levels() const {
    return n_ > 1 ? static_cast<std::size_t>(n_ - 1) : 0;
  }

  /// Serial head of level i: exact quotients, the induction bound, inline
  /// image escalation, and the wave partition of the level.  Must run
  /// after finish_level(i-1) (or prepare_crt for i == 1).
  void prepare_level(int i);
  /// Reconstructs coefficients j == w (mod the level's wave count) of
  /// F_{i+1}.  No-op for w past the level's wave count, so a static graph
  /// may over-provision wave tasks.  Distinct waves may run concurrently.
  void run_crt_wave(int i, std::size_t w);
  /// Serial tail of level i: degree validation and publishing F_{i+1},
  /// Q_i; latches the fallback on contradiction.
  void finish_level(int i);

  /// Compatibility driver: chunk 0 runs every level's prepare/waves/finish
  /// inline; other chunks are no-ops.
  void run_crt(std::size_t chunk);

  /// Assembles the sequence (exact Q_i / c_i, degree validation, optional
  /// held-out-prime check).  nullopt == use the exact path.
  std::optional<RemainderSequence> finalize();

 private:
  struct Slot {
    std::uint64_t prime = 0;
    /// rows[i-2][j] = canonical residue of coeff j of F_i, i in [2, n].
    std::vector<std::vector<std::uint64_t>> rows;
    bool ok = false;
  };
  enum class ImageStatus { kOk, kBadPrime, kZeroRemainder };

  std::uint64_t take_prime();
  ImageStatus compute_image(Slot& slot) const;
  void latch_fallback();
  /// Inline escalation: images slots [images_done_, k) on the calling
  /// thread, rebuilding the basis if a bad prime forced a replacement.
  /// Returns false when the fallback latched mid-escalation.
  bool ensure_images(std::size_t k);

  ModularConfig cfg_;
  Poly f0_, f1_;
  int n_ = 0;
  BigInt lc_product_;
  PrsBound bound_;
  bool worthwhile_ = false;
  int replacement_cap_ = 0;
  std::size_t eager_ = 0;        // prefix of slots_ imaged up front
  std::size_t images_done_ = 0;  // run_crt-thread only, set by prepare_crt

  std::vector<Slot> slots_;
  std::mutex prime_mutex_;
  std::size_t next_forced_ = 0;  // guarded by prime_mutex_
  std::size_t next_table_ = 0;   // guarded by prime_mutex_
  std::atomic<bool> fallback_{false};
  std::atomic<int> replacements_{0};

  std::unique_ptr<CrtBasis> basis_;
  std::vector<Poly> fs_;  // F_0..F_n, filled level-sequentially by run_crt
  std::vector<Poly> qs_;  // Q_1..Q_{n-1} (index i), exact by-products

  // Level-sequential CRT state.  Written by prepare_level / finish_level
  // (serial by graph construction); waves read it and write disjoint
  // entries of level_coeffs_.
  std::size_t wave_width_ = 1;    // driver's per-level wave task count
  BigInt cprev_sq_;               // c_{i-1}^2 carried across levels
  BigInt lvl_q0_, lvl_q1_;        // exact quotient coefficients of level i
  BigInt lvl_ci_sq_;              // c_i^2 of level i
  std::size_t lvl_k_ = 0;         // primes consumed by level i's bound
  std::size_t level_waves_ = 1;   // wave count the level's volume justifies
  std::vector<BigInt> level_coeffs_;  // F_{i+1} coefficients, wave-filled
};

/// Wave tasks per reconstruction level for `threads` workers:
/// min(16, 2 * threads), at least 1.  This is the number of wave tasks
/// the driver's graph builds; crt_level_waves decides how many of them
/// do work.
std::size_t crt_wave_fanout_cap(int threads);

/// Wave count for one level of `cnt` coefficients at prime count `k`.
/// Reconstructing one coefficient from k residues costs ~k^2/2
/// multiply-accumulates in the Garner digit stage plus ~k^2/2 in the
/// Horner limb assembly, with a linear term for the per-digit fold, so
/// the level carries cnt * (2k + k^2) units of work and fans out to one
/// wave per 16384 units (below that a wave does not amortize its ~2500
/// units of dispatch), capped by `cap` (the allocated slots, already
/// clamped to cnt by the caller).  Returns at least 1; monotone
/// nondecreasing in cnt and k.
std::size_t crt_level_waves(std::size_t cnt, std::size_t k, std::size_t cap);

/// One-call form, inline on the calling thread: images + CRT, then
/// finalize.  nullopt == caller should run the exact
/// compute_remainder_sequence (always correct: the fast path never guesses).
std::optional<RemainderSequence> compute_remainder_sequence_multimodular(
    const Poly& f0, const ModularConfig& cfg);

}  // namespace pr::modular
