// Descartes (Collins-Akritas) subdivision restricted to certified bands.
//
// The root-radii stage certifies annuli containing every root; reflecting
// each annulus onto the real line gives closed dyadic *bands*
// [lo/2^g, hi/2^g] outside of which the input has no real root.  The
// isolator runs the classic sign-variation subdivision independently inside
// each band -- everything between bands is skipped without a single sign
// evaluation, which is the whole point of the preconditioning.
//
// The baseline Descartes finder (baseline/descartes_finder) is the
// single-band case: one band [-2^R, 2^R] at scale 0 around every real
// root.  Output cells are open intervals with one-sided endpoint signs
// (or exact dyadic roots), so either refiner -- the hybrid interval
// solver or QIR -- consumes them unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "bigint/bigint.hpp"
#include "isolate/root_radii.hpp"
#include "poly/poly.hpp"

namespace pr::isolate {

/// Number of sign variations in the coefficient sequence (Descartes' rule
/// of signs: the number of positive roots is at most this, and equal to
/// it modulo 2).
int descartes_sign_variations(const Poly& p);

/// Upper bound, via Descartes' rule on the Moebius transform, for the
/// number of roots of q in the open interval (0, 1).  Exact when it
/// returns 0 or 1 (for squarefree q).
int descartes_bound_01(const Poly& q);

/// One isolating cell for a real root of the (squarefree) working
/// polynomial.  Either an exact dyadic root (lo == hi == 2^scale * root) or
/// an open interval (lo/2^scale, hi/2^scale) containing exactly one root,
/// with the one-sided endpoint signs recorded.
struct IsolatingCell {
  BigInt lo;
  BigInt hi;
  std::size_t scale = 0;
  bool exact = false;
  int s_lo = 0;  ///< sign of p at (lo/2^scale)^+ (isolated cells only)
  int s_hi = 0;  ///< sign of p at (hi/2^scale)^- (isolated cells only)
};

/// True iff cell a lies strictly left of cell b (compares the dyadic
/// positions across scales; cells never overlap, so left endpoints order).
bool cell_less(const IsolatingCell& a, const IsolatingCell& b);

/// A closed dyadic interval [lo/2^scale, hi/2^scale] the isolator will
/// subdivide (a merged real reflection of the certified annuli).
struct Band {
  BigInt lo;
  BigInt hi;
};

struct IsolationOutput {
  /// All real-root cells of the input, sorted left to right.
  std::vector<IsolatingCell> cells;
  /// The polynomial the non-exact cells' endpoint signs refer to: the input
  /// with a root at zero divided out (equal to the input when p(0) != 0).
  /// Refinement of the isolated cells must evaluate THIS polynomial; the
  /// zero root, if any, appears as an exact cell.
  Poly stripped;
  /// The annuli the bands came from (instrumentation + certification).
  RootRadiiResult radii;
  /// The merged bands actually subdivided, at scale radii.guard_bits.
  std::vector<Band> bands;
};

/// Collins-Akritas subdivision of p restricted to the closed band
/// [a/2^w, b/2^w] (a < b).  Roots at the band endpoints are emitted as
/// exact cells.  Throws InvalidArgument if the subdivision exceeds the
/// squarefree depth bound (i.e. the input has a repeated root).
std::vector<IsolatingCell> isolate_in_band(const Poly& p, const BigInt& a,
                                           const BigInt& b, std::size_t w);

/// Full radii-preconditioned isolation of a squarefree polynomial with
/// p.degree() >= 1.  Handles a root at zero exactly.  Complex roots are
/// fine; only the real ones produce cells.
IsolationOutput isolate_roots_radii(const Poly& p, const RadiiConfig& config);

}  // namespace pr::isolate
