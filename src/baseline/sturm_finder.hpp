// Baseline sequential real-root finder: Sturm-sequence isolation followed
// by the same hybrid interval refinement the tree algorithm uses.
//
// This plays the role of the paper's Figure-8 comparator (the PARI `roots`
// routine, 1991): a classical isolate-and-refine method whose isolation
// cost is insensitive to the output precision mu -- exactly the behaviour
// the paper observed ("the PARI algorithm seemed insensitive to this
// parameter").  It is also the fallback path for inputs whose remainder
// sequence is not normal.
#pragma once

#include <vector>

#include "core/interval_solver.hpp"
#include "isolate/descartes_isolate.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Computes the mu-approximations ceil(2^mu x) of every distinct real root
/// x of `p`.  `p` must be squarefree (callers reduce first); throws
/// InvalidArgument otherwise if detectable.  Results are nondecreasing.
std::vector<BigInt> sturm_find_roots(const Poly& p, std::size_t mu,
                                     const IntervalSolverConfig& config,
                                     IntervalStats* stats);

/// The refinement tail both baselines share: ceil(2^mu x) for the root x
/// of p in `cell`.  An exact cell costs no evaluation; an isolated cell
/// runs the hybrid interval solver at scale max(mu, cell.scale).  Throws
/// InvalidArgument when an isolated cell shows no sign change (p is not
/// squarefree).
BigInt solve_cell(const Poly& p, const isolate::IsolatingCell& cell,
                  std::size_t mu, const IntervalSolverConfig& config,
                  IntervalStats* stats);

}  // namespace pr
