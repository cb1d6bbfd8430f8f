// Number-theoretic transforms over the Montgomery PrimeField.
//
// Every table prime satisfies p == 1 (mod 2^20) (zp.hpp), so Z_p carries
// primitive 2^k-th roots of unity for k <= v_2(p-1) -- enough for radix-2
// convolutions up to length 2^20.  This module supplies:
//
//   * NttTables  -- per-prime transform state (the 2-Sylow generator derived
//     from the table's stored non-residue witness, plus lazily built
//     per-size plans: bit-reversal permutation, flat twiddle tables,
//     n^{-1}).  Obtained through a process-wide registry keyed by the prime
//     VALUE, never a table index, so regenerating or reordering the modulus
//     table can never serve stale tables (and forced test primes get their
//     own entries).
//   * ntt_forward / ntt_inverse -- iterative in-place transforms, natural
//     order in and out, entirely in the Montgomery domain.  The first two
//     butterfly levels run as one fused radix-4 pass (halves the passes
//     over the data at the cache-unfriendly small strides).
//   * ntt_mul / ntt_sqr -- PolyZp convolution entry points: zero-pad to the
//     next power of two, transform, pointwise multiply, invert.  Falls back
//     to schoolbook below a calibrated cutoff (same word-multiply units as
//     the ModularCombine cost gate) or when the prime's 2-adic order cannot
//     accommodate the convolution length (forced test primes).
//
// Determinism: all arithmetic is exact mod p, so ntt_mul is bit-identical
// to PolyZp::mul_schoolbook -- the NTT changes the cost of a convolution,
// never its value.  The cutoff decision depends only on operand lengths,
// so every thread count takes the same path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "modular/polyzp.hpp"
#include "modular/zp.hpp"

namespace pr::modular {

/// One cached transform size for one field.  Immutable once built.
struct NttPlan {
  std::size_t n = 0;   ///< transform length, a power of two
  unsigned log2n = 0;
  /// bitrev[i] = bit-reversal of i in log2n bits (size n).
  std::vector<std::uint32_t> bitrev;
  /// Flat twiddle layout: fwd[h + j] = w_{2h}^j for h = 1, 2, 4, ..., n/2
  /// and j in [0, h) -- each butterfly level's roots are contiguous and
  /// the level index doubles as the offset.  Slot 0 is unused.  inv holds
  /// the same layout for w^{-1}.
  std::vector<Zp> fwd;
  std::vector<Zp> inv;
  Zp inv_n{0};  ///< Montgomery form of n^{-1} mod p
};

/// Per-prime NTT state: a PrimeField copy, the 2-Sylow generator, and
/// lazily built plans per power-of-two size.
class NttTables {
 public:
  /// Process-wide registry accessor; thread-safe, one instance per
  /// distinct prime value.  p must be an odd prime below 2^62 (the caller
  /// vouches for primality -- table primes and validated forced primes).
  static NttTables& for_prime(std::uint64_t p);

  const PrimeField& field() const { return f_; }
  /// s = v_2(p - 1): transforms up to length 2^s exist.
  unsigned two_adic() const { return s_; }
  /// Largest transform this prime (and the plan-size cap) supports.
  std::size_t max_size() const;

  /// The cached plan for length n (a power of two <= max_size()); built on
  /// first use under a lock, immutable afterwards.
  const NttPlan& plan(std::size_t n);

  /// Primitive 2^k-th root of unity: gen^(2^(s-k)), k <= s.  Exposed for
  /// the order checks in tests.
  Zp root_of_unity(unsigned k) const;

 private:
  explicit NttTables(std::uint64_t p);

  PrimeField f_;
  unsigned s_ = 0;
  Zp gen_{0};  ///< generator of the 2-Sylow subgroup (order exactly 2^s)
  std::mutex mu_;
  std::vector<std::unique_ptr<NttPlan>> plans_;  // indexed by log2(n)
};

/// In-place forward/inverse transforms (natural order in and out).  `a`
/// must hold exactly plan.n Montgomery residues of f; f must be the field
/// the plan was built for.
void ntt_forward(std::vector<Zp>& a, const NttPlan& plan, const PrimeField& f);
void ntt_inverse(std::vector<Zp>& a, const NttPlan& plan, const PrimeField& f);

/// Per-butterfly charge of the cost model, in the word-multiply units of
/// the ModularCombine gate (1 unit == one 64x64 multiply-accumulate).
/// A compiled per-ISA constant: 3.0 with a vector kernel table active,
/// 4.0 scalar.
double ntt_butterfly_units();

/// Cost of one length-n transform in the same units: (n/2) log2(n)
/// butterflies at ntt_butterfly_units() each, plus one permutation pass.
double ntt_transform_cost(std::size_t n);

/// Convolution transform length for operand lengths la, lb (>= 1):
/// the least power of two >= la + lb - 1.
std::size_t ntt_conv_size(std::size_t la, std::size_t lb);

/// True when the three-transform NTT product of lengths la x lb is cheaper
/// than the la*lb schoolbook MACs under the cost model.  Depends
/// only on the lengths -- the deterministic cutoff.
bool ntt_profitable(std::size_t la, std::size_t lb);

/// Product of a and b over f: NTT above the cutoff, schoolbook below it or
/// when v_2(p-1) cannot accommodate the convolution length.  Always
/// bit-identical to a.mul_schoolbook(b, f).
PolyZp ntt_mul(const PolyZp& a, const PolyZp& b, const PrimeField& f);

/// Square of a over f (one forward transform instead of two).
PolyZp ntt_sqr(const PolyZp& a, const PrimeField& f);

}  // namespace pr::modular
