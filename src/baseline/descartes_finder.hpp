// Descartes-rule root isolation (Collins-Akritas bisection), a second,
// modern sequential comparator alongside the Sturm baseline.
//
// The method the paper compared against (PARI 1991) predates the modern
// standard for real-root isolation; this module runs that standard as the
// single-band case of isolate::isolate_in_band: one band [-2^R, 2^R] at
// scale 0, bisected with Descartes' rule of signs on the Moebius-
// transformed polynomial until every cell holds 0 or 1 roots (Vincent's
// theorem guarantees termination for squarefree input; the band
// isolator's depth bound turns a repeated root into InvalidArgument).
// Isolated cells are refined with the same hybrid interval solver the
// tree algorithm and the Sturm baseline use (solve_cell).
#pragma once

#include <vector>

#include "core/interval_solver.hpp"
#include "poly/poly.hpp"

namespace pr {

/// Computes the mu-approximations ceil(2^mu x) of every distinct real
/// root x of the squarefree polynomial p, by Collins-Akritas isolation +
/// hybrid refinement.  Results are nondecreasing and bit-identical to the
/// other finders'.  Throws InvalidArgument when p has a repeated root.
std::vector<BigInt> descartes_find_roots(const Poly& p, std::size_t mu,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats);

}  // namespace pr
