// Internal helpers shared between the BigInt translation units.
// Not part of the public API.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "bigint/bigint.hpp"
#include "bigint/limb_store.hpp"

namespace pr::detail {

/// The packed multiplication-dispatch word (defined in bigint_mul.cpp).
/// One MulDispatch is encoded into a single 64-bit value:
///
///   bit  0        Karatsuba enabled
///   bit  1        NTT enabled
///   bits 16..31   Karatsuba threshold (limbs, clamped to [4, 2^16))
///   bits 32..47   NTT threshold      (limbs, clamped to [4, 2^16))
///
/// Memory-ordering contract: BigInt::set_mul_dispatch() (and the
/// flag-preserving set_karatsuba_enabled() compare-exchange) write with
/// memory_order_release and multiplication sites read ONCE per multiply
/// with memory_order_acquire.  Every selector is a pure algorithm choice --
/// all multipliers produce identical limbs -- so the ordering is not needed
/// for the arithmetic itself; acquire/release makes a reconfiguration
/// performed before dispatching work to TaskPool threads visible to those
/// workers without relying on the pool's own synchronization
/// (bench_ablation_karatsuba flips it between configurations while re-using
/// a warm pool).  The single-word encoding is what makes the configuration
/// COHERENT: a multiply decodes flags and thresholds from one load, so it
/// can never pair one configuration's Karatsuba flag with another's NTT
/// threshold mid-toggle.
std::atomic<std::uint64_t>& mul_dispatch_word();

/// Thresholds are clamped to [4, 2^16).  The floor is a termination
/// requirement, not taste: Karatsuba's recursion maps an n-limb operand to
/// halves of ceil(n/2) + 1 limbs (the +1 absorbs the a_lo + a_hi carry),
/// which is strictly smaller only for n > 3 -- a threshold of 2 or 3 would
/// let kara_arena_bound/kara_rec loop forever on 2- or 3-limb inputs.
inline std::uint64_t clamp_threshold(std::uint64_t t) {
  if (t < 4) return 4;
  if (t > 0xffff) return 0xffff;
  return t;
}

inline std::uint64_t encode_mul_dispatch(const MulDispatch& d) {
  return (d.karatsuba ? 1ull : 0ull) | (d.ntt ? 2ull : 0ull) |
         (clamp_threshold(d.karatsuba_threshold) << 16) |
         (clamp_threshold(d.ntt_threshold) << 32);
}

inline MulDispatch decode_mul_dispatch(std::uint64_t w) {
  MulDispatch d;
  d.karatsuba = (w & 1ull) != 0;
  d.ntt = (w & 2ull) != 0;
  d.karatsuba_threshold = static_cast<std::uint32_t>((w >> 16) & 0xffff);
  d.ntt_threshold = static_cast<std::uint32_t>((w >> 32) & 0xffff);
  return d;
}

/// Bit length of a trimmed limb store (0 for the empty/zero store).
inline std::size_t store_bit_length(const LimbStore& v) {
  if (v.empty()) return 0;
  return 64 * (v.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(v.back())));
}

}  // namespace pr::detail
