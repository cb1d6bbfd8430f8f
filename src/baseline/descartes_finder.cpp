#include "baseline/descartes_finder.hpp"

#include "baseline/sturm_finder.hpp"
#include "instr/phase.hpp"
#include "isolate/descartes_isolate.hpp"
#include "poly/bounds.hpp"
#include "support/error.hpp"

namespace pr {

std::vector<BigInt> descartes_find_roots(const Poly& p, std::size_t mu,
                                         const IntervalSolverConfig& config,
                                         IntervalStats* stats) {
  check_arg(p.degree() >= 1, "descartes_find_roots: degree >= 1 required");
  const std::vector<isolate::IsolatingCell> cells = [&] {
    instr::PhaseScope phase(instr::Phase::kBaseline);
    const BigInt bound = BigInt::pow2(root_bound_pow2(p));
    return isolate::isolate_in_band(p, -bound, bound, 0);
  }();
  // The cells are sorted left to right and disjoint, so their
  // mu-approximations come out nondecreasing.
  std::vector<BigInt> out;
  out.reserve(cells.size());
  for (const auto& cell : cells) {
    out.push_back(solve_cell(p, cell, mu, config, stats));
  }
  return out;
}

}  // namespace pr
