#include "baseline/sturm_finder.hpp"

#include <algorithm>

#include "core/scaled_point.hpp"
#include "instr/phase.hpp"
#include "poly/bounds.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

struct Finder {
  const Poly& p;
  const SturmChain chain;
  std::size_t mu;
  const IntervalSolverConfig& config;
  IntervalStats* stats;
  std::vector<BigInt> out;

  /// The one root in (lo/2^s, hi/2^s] as a cell: exact when it sits on
  /// hi, otherwise open with one-sided endpoint signs (a root exactly on
  /// the excluded left endpoint leaves the right-limit sign nonzero).
  isolate::IsolatingCell cell_of(const BigInt& lo, const BigInt& hi,
                                 std::size_t s) const {
    isolate::IsolatingCell cell;
    cell.scale = s;
    cell.hi = hi;
    if (p.sign_at_scaled(hi, s) == 0) {
      cell.lo = hi;
      cell.exact = true;
      return cell;
    }
    cell.lo = lo;
    cell.s_lo = sign_right_limit(p, lo, s);
    cell.s_hi = sign_left_limit(p, hi, s);
    return cell;
  }

  void isolate(const BigInt& lo, const BigInt& hi, std::size_t s) {
    const int cnt = chain.count_half_open(lo, hi, s);
    if (cnt == 0) return;
    if (cnt == 1) {
      out.push_back(solve_cell(p, cell_of(lo, hi, s), mu, config, stats));
      return;
    }
    const BigInt mid = lo + hi;  // at scale s+1
    isolate(lo + lo, mid, s + 1);
    isolate(mid, hi + hi, s + 1);
  }
};

}  // namespace

BigInt solve_cell(const Poly& p, const isolate::IsolatingCell& cell,
                  std::size_t mu, const IntervalSolverConfig& config,
                  IntervalStats* stats) {
  const std::size_t s = cell.scale;
  if (cell.exact) {
    return s <= mu ? cell.lo << (mu - s) : ceil_shift(cell.lo, s - mu);
  }
  check_arg(cell.s_lo * cell.s_hi == -1,
            "solve_cell: isolated cell without a sign change (input not "
            "squarefree)");
  if (s <= mu) {
    return solve_isolated_interval(p, cell.lo << (mu - s),
                                   cell.hi << (mu - s), cell.s_lo, cell.s_hi,
                                   mu, config, stats);
  }
  // Isolation had to go below the output grid (clustered roots): resolve
  // at scale s, then coarsen; the unit cell maps to a unique mu-cell
  // because mu-grid points are s-grid points.
  return ceil_shift(solve_isolated_interval(p, cell.lo, cell.hi, cell.s_lo,
                                            cell.s_hi, s, config, stats),
                    s - mu);
}

std::vector<BigInt> sturm_find_roots(const Poly& p, std::size_t mu,
                                     const IntervalSolverConfig& config,
                                     IntervalStats* stats) {
  check_arg(p.degree() >= 1, "sturm_find_roots: degree >= 1 required");
  // Everything not attributed to a refinement sub-phase (chain building,
  // counting queries) lands in the baseline bucket.
  instr::PhaseScope phase(instr::Phase::kBaseline);
  Finder f{p, SturmChain(p), mu, config, stats, {}};
  const std::size_t r = root_bound_pow2(p);
  const BigInt bound = BigInt::pow2(r);
  f.isolate(-bound, bound, 0);
  std::sort(f.out.begin(), f.out.end());
  return f.out;
}

}  // namespace pr
