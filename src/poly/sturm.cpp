#include "poly/sturm.hpp"

#include "instr/phase.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

/// Counts sign changes in a sequence, ignoring zeros.
int variations(const std::vector<int>& signs) {
  int count = 0;
  int prev = 0;
  for (int s : signs) {
    if (s == 0) continue;
    if (prev != 0 && s != prev) ++count;
    prev = s;
  }
  return count;
}

/// Sign at a/2^w of the first derivative p^(k), k >= 0, that does not
/// vanish there, with k in `order`; 0 for the zero polynomial.  p is
/// evaluated in place: derivatives are formed only when p vanishes.
int first_nonvanishing_sign(const Poly& p, const BigInt& a, std::size_t w,
                            int& order) {
  order = 0;
  if (p.is_zero()) return 0;
  const int s = p.sign_at_scaled(a, w);
  if (s != 0) return s;
  for (Poly cur = p.derivative(); !cur.is_zero(); cur = cur.derivative()) {
    ++order;
    const int sd = cur.sign_at_scaled(a, w);
    if (sd != 0) return sd;
  }
  return 0;
}

}  // namespace

int sign_right_limit(const Poly& p, const BigInt& a, std::size_t w) {
  int order;
  return first_nonvanishing_sign(p, a, w, order);
}

int sign_left_limit(const Poly& p, const BigInt& a, std::size_t w) {
  int order;
  const int s = first_nonvanishing_sign(p, a, w, order);
  return order % 2 == 0 ? s : -s;  // odd order flips the sign
}

SturmChain::SturmChain(const Poly& p) {
  check_arg(!p.is_zero(), "SturmChain: zero polynomial");
  seq_.push_back(p.primitive_part());
  if (p.degree() == 0) return;
  seq_.push_back(p.derivative().primitive_part());
  while (seq_.back().degree() > 0) {
    const Poly& a = seq_[seq_.size() - 2];
    const Poly& b = seq_.back();
    Poly q, r;
    Poly::pseudo_divmod(a, b, q, r);
    if (r.is_zero()) break;
    // Pseudo-division scales a by lc(b)^(delta+1); if that factor is
    // negative the remainder's sign is flipped relative to the true
    // remainder, which would corrupt the Sturm property.  Normalize: the
    // Sturm step needs the *negated true remainder* up to a positive
    // constant.
    const int delta = a.degree() - b.degree() + 1;
    const bool flipped = b.leading().negative() && (delta % 2 != 0);
    // Divide by the (positive) content only -- do NOT normalize the sign of
    // the leading coefficient, which carries the Sturm information.
    Poly next = r.divexact_scalar(r.content());
    if (!flipped) next = -next;  // Sturm: negate the true remainder
    seq_.push_back(std::move(next));
  }
}

int SturmChain::variations_right(const BigInt& a, std::size_t w) const {
  std::vector<int> signs;
  signs.reserve(seq_.size());
  for (const auto& s : seq_) signs.push_back(sign_right_limit(s, a, w));
  return variations(signs);
}

int SturmChain::variations_left(const BigInt& a, std::size_t w) const {
  std::vector<int> signs;
  signs.reserve(seq_.size());
  for (const auto& s : seq_) signs.push_back(sign_left_limit(s, a, w));
  return variations(signs);
}

int SturmChain::variations_at_neg_inf() const {
  std::vector<int> signs;
  signs.reserve(seq_.size());
  for (const auto& s : seq_) {
    const int lead = s.leading().signum();
    signs.push_back(s.degree() % 2 == 0 ? lead : -lead);
  }
  return variations(signs);
}

int SturmChain::variations_at_pos_inf() const {
  std::vector<int> signs;
  signs.reserve(seq_.size());
  for (const auto& s : seq_) signs.push_back(s.leading().signum());
  return variations(signs);
}

int SturmChain::distinct_real_roots() const {
  return variations_at_neg_inf() - variations_at_pos_inf();
}

int SturmChain::count_half_open(const BigInt& lo, const BigInt& hi,
                                std::size_t w) const {
  // V(lo^+) - V(hi^+) counts roots in (lo, hi]: the symbolic perturbation
  // moves both endpoints right past any coinciding root.
  return variations_right(lo, w) - variations_right(hi, w);
}

int SturmChain::count_below(const BigInt& a, std::size_t w) const {
  return variations_at_neg_inf() - variations_left(a, w);
}

}  // namespace pr
