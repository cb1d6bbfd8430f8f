// Dyadic (scaled-integer) point helpers.
//
// Following Section 3.3 of the paper, every rational point x handled by the
// algorithm is a dyadic rational identified with the integer 2^w * x at a
// known scale w.  A root's mu-approximation is the ceiling convention
//   approx(x) = ceil(2^mu * x) / 2^mu,
// the unique convention consistent with the paper's Case 2a
// (x_i in (y~_i - 2^-mu, y~_i]  =>  x~_i = y~_i).
#pragma once

#include <cstddef>

#include "bigint/bigint.hpp"
#include "poly/poly.hpp"

namespace pr {

/// ceil(a / 2^k).
BigInt ceil_shift(const BigInt& a, std::size_t k);

/// floor(a / 2^k).
BigInt floor_shift(const BigInt& a, std::size_t k);

/// Converts the scaled value a at scale `from` to scale `to` (to >= from):
/// multiplies by 2^(to-from).
BigInt upscale(const BigInt& a, std::size_t from, std::size_t to);

/// The mu-approximation (ceiling convention) of the exact rational a/2^w,
/// returned as a scaled integer at scale mu (mu <= w).
BigInt mu_approx_of_scaled(const BigInt& a, std::size_t w, std::size_t mu);

/// The mu-approximation ceil(2^mu * (-c0/c1)) of the root of the linear
/// polynomial p = c1*x + c0.
BigInt linear_root_mu_approx(const Poly& p, std::size_t mu);

/// Renders a/2^w as a decimal string with `digits` fractional digits.
std::string scaled_to_string(const BigInt& a, std::size_t w, int digits = 6);

/// a/2^w as a double (for reporting only).
double scaled_to_double(const BigInt& a, std::size_t w);

}  // namespace pr
