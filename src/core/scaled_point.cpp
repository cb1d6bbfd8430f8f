#include "core/scaled_point.hpp"

#include <cmath>

#include "support/error.hpp"

namespace pr {

BigInt ceil_shift(const BigInt& a, std::size_t k) {
  if (k == 0) return a;
  BigInt q = a;
  q >>= k;  // magnitude shift truncates toward zero
  if (!a.negative()) {
    // q = floor for non-negative a; bump if any dropped bit was set.
    BigInt back = q;
    back <<= k;
    if (back < a) q += BigInt(1);
  }
  return q;
}

BigInt floor_shift(const BigInt& a, std::size_t k) {
  if (k == 0) return a;
  BigInt q = a;
  q >>= k;
  if (a.negative()) {
    BigInt back = q;
    back <<= k;
    if (back > a) q -= BigInt(1);
  }
  return q;
}

BigInt upscale(const BigInt& a, std::size_t from, std::size_t to) {
  check_arg(to >= from, "upscale: target scale below source scale");
  return a << (to - from);
}

BigInt mu_approx_of_scaled(const BigInt& a, std::size_t w, std::size_t mu) {
  check_arg(mu <= w, "mu_approx_of_scaled: mu must be <= w");
  return ceil_shift(a, w - mu);
}

BigInt linear_root_mu_approx(const Poly& p, std::size_t mu) {
  check_arg(p.degree() == 1, "linear_root_mu_approx: degree != 1");
  return BigInt::cdiv(-(p.coeff(0) << mu), p.coeff(1));
}

std::string scaled_to_string(const BigInt& a, std::size_t w, int digits) {
  // a / 2^w = a * 10^digits / 2^w scaled down by 10^digits.
  BigInt scaled = a * pow(BigInt(10), static_cast<unsigned>(digits));
  // Round to nearest: add half of 2^w before flooring.
  if (w > 0) {
    scaled += a.negative() ? -BigInt::pow2(w - 1) : BigInt::pow2(w - 1);
  }
  BigInt q = floor_shift(scaled.negative() ? -scaled : scaled, w);
  std::string q_dec = q.to_decimal();
  const auto d = static_cast<std::size_t>(digits);
  // Left-pad so at least one digit precedes the point, then assemble
  // sign, integer part, point and fraction front to back.
  if (q_dec.size() <= d) {
    q_dec = std::string(d + 1 - q_dec.size(), '0') + q_dec;
  }
  std::string s = scaled.negative() ? "-" : "";
  s.append(q_dec, 0, q_dec.size() - d);
  s += '.';
  s.append(q_dec, q_dec.size() - d, d);
  return s;
}

double scaled_to_double(const BigInt& a, std::size_t w) {
  return a.to_double() * std::pow(2.0, -static_cast<double>(w));
}

}  // namespace pr
