// Differential tests for the SIMD mod-p kernel layer (modular/simd/).
//
// The load-bearing property is the determinism contract: every vector
// kernel must produce BIT-IDENTICAL results to the portable scalar table
// on the same inputs -- per kernel over every table prime and a sweep of
// lengths (vector bodies, scalar tails, and the h < lane-width fallbacks
// all get hit), and end to end through the forward/inverse transforms,
// the batched Garner reconstruction, and the full BigInt NTT multiply
// with each available ISA forced.  The suite runs under ASan/UBSan in the
// sanitizer CI leg unchanged, which is what certifies the intrinsics
// paths (unaligned loads, lane extraction) are not relying on UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/bigint_ntt.hpp"
#include "calibrate/calibrate.hpp"
#include "modular/crt.hpp"
#include "modular/ntt.hpp"
#include "modular/simd/simd.hpp"
#include "modular/zp.hpp"
#include "support/prng.hpp"

namespace pr::modular::simd {
namespace {

/// Restores the startup ISA selection on scope exit, so a failing test
/// cannot leak a forced table into the rest of the suite.
struct IsaGuard {
  ~IsaGuard() { reset_forced_isa(); }
};

std::vector<Isa> vector_isas() {
  std::vector<Isa> out;
  for (Isa isa : available_isas()) {
    if (isa != Isa::kScalar) out.push_back(isa);
  }
  return out;
}

std::vector<Zp> random_residues(std::size_t n, const PrimeField& f,
                                Prng& rng) {
  std::vector<Zp> v(n);
  for (auto& x : v) x = f.from_u64(rng.next());
  return v;
}

const std::size_t kLens[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 20,
                             31, 32, 33, 64, 100, 128, 256, 512};

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_NE(kernels_for(Isa::kScalar), nullptr);
  EXPECT_EQ(kernels_for(Isa::kScalar)->isa, Isa::kScalar);
  EXPECT_FALSE(available_isas().empty());
  EXPECT_EQ(available_isas().front(), Isa::kScalar);
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::kAvx512), "avx512");
}

TEST(SimdDispatch, ForceIsaRoundTrips) {
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa)) << isa_name(isa);
    EXPECT_EQ(active_isa(), isa);
  }
  reset_forced_isa();
  // The startup pick is one of the available tables.
  bool found = false;
  for (Isa isa : available_isas()) found = found || (active_isa() == isa);
  EXPECT_TRUE(found);
}

TEST(SimdDispatch, ProfileIdNamesTheActiveIsa) {
  // The provenance id perfbench and every BENCH_*.json stamp.
  IsaGuard guard;
  for (Isa isa : available_isas()) {
    ASSERT_TRUE(force_isa(isa)) << isa_name(isa);
    EXPECT_EQ(calibrate::active_profile_id(),
              std::string("defaults-") + isa_name(isa));
  }
}

TEST(SimdKernels, PointwiseAndConversionsMatchScalar) {
  Prng rng(11);
  const Kernels& ref = scalar_kernels();
  for (std::size_t pi = 0; pi < 5; ++pi) {
    const PrimeField f = PrimeField::trusted(nth_modulus(pi));
    const MontCtx ctx = f.ctx();
    for (Isa isa : vector_isas()) {
      const Kernels* vec = kernels_for(isa);
      ASSERT_NE(vec, nullptr);
      for (std::size_t n : kLens) {
        const std::vector<Zp> a = random_residues(n, f, rng);
        const std::vector<Zp> b = random_residues(n, f, rng);
        std::vector<Zp> r1 = a, r2 = a;

        ref.pointwise_mul(r1.data(), b.data(), n, ctx);
        vec->pointwise_mul(r2.data(), b.data(), n, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(r1[i].v, r2[i].v)
              << "pointwise_mul " << isa_name(isa) << " n=" << n;
        }

        r1 = a;
        r2 = a;
        ref.pointwise_sqr(r1.data(), n, ctx);
        vec->pointwise_sqr(r2.data(), n, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(r1[i].v, r2[i].v)
              << "pointwise_sqr " << isa_name(isa) << " n=" << n;
        }

        r1 = a;
        r2 = a;
        const Zp c = f.from_u64(rng.next());
        ref.scale(r1.data(), n, c, ctx);
        vec->scale(r2.data(), n, c, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(r1[i].v, r2[i].v)
              << "scale " << isa_name(isa) << " n=" << n;
        }

        // from_u64 over raw words (not residues): must equal both the
        // scalar kernel and PrimeField::from_u64.
        std::vector<std::uint64_t> raw(n);
        for (auto& x : raw) x = rng.next();
        std::vector<Zp> m1(n), m2(n);
        ref.from_u64(raw.data(), m1.data(), n, ctx);
        vec->from_u64(raw.data(), m2.data(), n, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(m1[i].v, m2[i].v)
              << "from_u64 " << isa_name(isa) << " n=" << n;
          ASSERT_EQ(m1[i].v, f.from_u64(raw[i]).v) << "from_u64 vs field";
        }

        std::vector<std::uint64_t> u1(n), u2(n);
        ref.to_u64(a.data(), u1.data(), n, ctx);
        vec->to_u64(a.data(), u2.data(), n, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(u1[i], u2[i])
              << "to_u64 " << isa_name(isa) << " n=" << n;
          ASSERT_EQ(u1[i], f.to_u64(a[i])) << "to_u64 vs field";
        }
      }
    }
  }
}

TEST(SimdKernels, ButterflyLevelsMatchScalar) {
  Prng rng(12);
  const Kernels& ref = scalar_kernels();
  for (std::size_t pi = 0; pi < 5; ++pi) {
    const PrimeField f = PrimeField::trusted(nth_modulus(pi));
    const MontCtx ctx = f.ctx();
    for (Isa isa : vector_isas()) {
      const Kernels* vec = kernels_for(isa);
      ASSERT_NE(vec, nullptr);
      for (std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                            std::size_t{64}, std::size_t{256},
                            std::size_t{1024}}) {
        const std::vector<Zp> a = random_residues(n, f, rng);
        // Any canonical residues exercise the butterfly identically to
        // real twiddles; tw[h + j] indexes below n for every level.
        const std::vector<Zp> tw = random_residues(n, f, rng);
        for (std::size_t h = 1; h < n; h <<= 1) {
          std::vector<Zp> r1 = a, r2 = a;
          ref.ntt_level(r1.data(), n, h, tw.data(), ctx);
          vec->ntt_level(r2.data(), n, h, tw.data(), ctx);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(r1[i].v, r2[i].v)
                << "ntt_level " << isa_name(isa) << " n=" << n
                << " h=" << h << " i=" << i;
          }
        }
        const Zp im = f.from_u64(rng.next());
        std::vector<Zp> r1 = a, r2 = a;
        ref.radix4_first(r1.data(), n, im, ctx);
        vec->radix4_first(r2.data(), n, im, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(r1[i].v, r2[i].v)
              << "radix4_first " << isa_name(isa) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, GarnerStageMatchesScalar) {
  Prng rng(13);
  const Kernels& ref = scalar_kernels();
  for (std::size_t pi = 0; pi < 4; ++pi) {
    const PrimeField f = PrimeField::trusted(nth_modulus(pi));
    const MontCtx ctx = f.ctx();
    for (Isa isa : vector_isas()) {
      const Kernels* vec = kernels_for(isa);
      ASSERT_NE(vec, nullptr);
      for (std::size_t count :
           {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
            std::size_t{8}, std::size_t{9}, std::size_t{16}, std::size_t{33},
            std::size_t{100}}) {
        for (std::size_t j : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{7}}) {
          const std::size_t stride = count;
          std::vector<std::uint64_t> digits((j + 1) * stride);
          for (auto& d : digits) d = rng.next() % f.prime();
          const std::vector<Zp> w = random_residues(j, f, rng);
          const Zp inv = f.from_u64(rng.next());
          std::vector<std::uint64_t> residues(count);
          for (auto& r : residues) r = rng.next() % f.prime();
          std::vector<std::uint64_t> o1(count), o2(count);
          ref.garner_stage(digits.data(), stride, j, w.data(), inv,
                           residues.data(), o1.data(), count, ctx);
          vec->garner_stage(digits.data(), stride, j, w.data(), inv,
                            residues.data(), o2.data(), count, ctx);
          for (std::size_t c = 0; c < count; ++c) {
            ASSERT_EQ(o1[c], o2[c])
                << "garner_stage " << isa_name(isa) << " count=" << count
                << " j=" << j << " c=" << c;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, Acc192DotMatchesSequential) {
  Prng rng(14);
  const PrimeField f = PrimeField::trusted(nth_modulus(0));
  for (Isa isa : vector_isas()) {
    const Kernels* vec = kernels_for(isa);
    ASSERT_NE(vec, nullptr);
    for (std::size_t n : kLens) {
      // Worst-case words (all-ones limbs stress every carry chain) mixed
      // with random ones.
      std::vector<std::uint64_t> a(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = (i % 3 == 0) ? ~std::uint64_t{0} : rng.next();
      }
      const std::vector<Zp> b = random_residues(n, f, rng);
      Acc192 s1, s2;
      s1.lo = s2.lo = rng.next();
      s1.hi = s2.hi = rng.next();
      s1.carry = s2.carry = rng.next() & 0xff;
      for (std::size_t i = 0; i < n; ++i) s1.add(a[i], b[i].v);
      vec->acc192_dot(a.data(), b.data(), n, s2);
      ASSERT_EQ(s1.lo, s2.lo) << "acc192 lo " << isa_name(isa) << " n=" << n;
      ASSERT_EQ(s1.hi, s2.hi) << "acc192 hi " << isa_name(isa) << " n=" << n;
      ASSERT_EQ(s1.carry, s2.carry)
          << "acc192 carry " << isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdEndToEnd, TransformsIdenticalAcrossIsas) {
  IsaGuard guard;
  Prng rng(15);
  for (std::size_t pi = 0; pi < 3; ++pi) {
    NttTables& tables = NttTables::for_prime(nth_modulus(pi));
    const PrimeField& f = tables.field();
    for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{512},
                          std::size_t{2048}}) {
      const NttPlan& plan = tables.plan(n);
      const std::vector<Zp> a = random_residues(n, f, rng);

      ASSERT_TRUE(force_isa(Isa::kScalar));
      std::vector<Zp> fwd_ref = a;
      ntt_forward(fwd_ref, plan, f);
      std::vector<Zp> rt_ref = fwd_ref;
      ntt_inverse(rt_ref, plan, f);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rt_ref[i].v, a[i].v) << "scalar round-trip";
      }

      for (Isa isa : vector_isas()) {
        ASSERT_TRUE(force_isa(isa));
        std::vector<Zp> fwd = a;
        ntt_forward(fwd, plan, f);
        std::vector<Zp> rt = fwd;
        ntt_inverse(rt, plan, f);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(fwd[i].v, fwd_ref[i].v)
              << "forward " << isa_name(isa) << " n=" << n << " i=" << i;
          ASSERT_EQ(rt[i].v, a[i].v)
              << "round-trip " << isa_name(isa) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdEndToEnd, BatchedReconstructionMatchesSingle) {
  IsaGuard guard;
  Prng rng(16);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}}) {
    std::vector<std::uint64_t> primes(k);
    for (std::size_t i = 0; i < k; ++i) primes[i] = nth_modulus(i);
    const CrtBasis basis(primes);
    const std::size_t count = 37;  // odd: exercises every vector tail
    std::vector<std::uint64_t> residues(k * count);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < count; ++c) {
        residues[j * count + c] = rng.next() % primes[j];
      }
    }
    // Single-value scalar reference.
    ASSERT_TRUE(force_isa(Isa::kScalar));
    std::vector<std::uint64_t> want(k * count);
    std::vector<BigInt> want_big(count);
    {
      std::vector<std::uint64_t> rj(k);
      for (std::size_t c = 0; c < count; ++c) {
        for (std::size_t j = 0; j < k; ++j) rj[j] = residues[j * count + c];
        basis.reconstruct_limbs(rj.data(), k, want.data() + c * k);
        want_big[c] = basis.reconstruct(rj.data(), k);
      }
    }
    for (Isa isa : available_isas()) {
      ASSERT_TRUE(force_isa(isa));
      std::vector<std::uint64_t> got(k * count, 0xdeadbeef);
      basis.reconstruct_limbs_batch(residues.data(), count, k, got.data(),
                                    count);
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            k * count * sizeof(std::uint64_t)),
                0)
          << "reconstruct_limbs_batch " << isa_name(isa) << " k=" << k;
      std::vector<BigInt> got_big(count);
      basis.reconstruct_batch(residues.data(), count, k, got_big.data(),
                              count);
      for (std::size_t c = 0; c < count; ++c) {
        ASSERT_EQ(want_big[c], got_big[c])
            << "reconstruct_batch " << isa_name(isa) << " k=" << k
            << " c=" << c;
      }
    }
  }
}

TEST(SimdEndToEnd, BigIntNttMulIdenticalAcrossIsas) {
  IsaGuard guard;
  Prng rng(17);
  for (std::size_t limbs : {std::size_t{8}, std::size_t{33},
                            std::size_t{260}}) {
    std::vector<std::uint64_t> al(limbs), bl(limbs);
    for (auto& x : al) x = rng.next();
    for (auto& x : bl) x = rng.next();
    al.back() |= 1;  // nonzero top limb
    bl.back() |= 1;
    const BigInt a = BigInt::from_limbs(al.data(), limbs, false);
    const BigInt b = BigInt::from_limbs(bl.data(), limbs, false);

    ASSERT_TRUE(force_isa(Isa::kScalar));
    detail::LimbStore ref;
    detail::mul_ntt_mag(al.data(), limbs, bl.data(), limbs, ref);
    detail::LimbStore ref_sq;
    detail::mul_ntt_mag(al.data(), limbs, al.data(), limbs, ref_sq);

    // The scalar NTT result is itself exact: cross-check against the
    // dispatcher's product (schoolbook/Karatsuba at these sizes).
    const BigInt exact = a * b;
    const BigInt got_scalar =
        BigInt::from_limbs(ref.data(), ref.size(), false);
    ASSERT_EQ(exact, got_scalar) << "scalar NTT vs exact product";

    for (Isa isa : vector_isas()) {
      ASSERT_TRUE(force_isa(isa));
      detail::LimbStore out;
      detail::mul_ntt_mag(al.data(), limbs, bl.data(), limbs, out);
      ASSERT_EQ(ref.size(), out.size()) << isa_name(isa);
      ASSERT_EQ(std::memcmp(ref.data(), out.data(),
                            ref.size() * sizeof(std::uint64_t)),
                0)
          << "mul_ntt_mag " << isa_name(isa) << " limbs=" << limbs;
      detail::LimbStore out_sq;
      detail::mul_ntt_mag(al.data(), limbs, al.data(), limbs, out_sq);
      ASSERT_EQ(ref_sq.size(), out_sq.size()) << isa_name(isa);
      ASSERT_EQ(std::memcmp(ref_sq.data(), out_sq.data(),
                            ref_sq.size() * sizeof(std::uint64_t)),
                0)
          << "sqr mul_ntt_mag " << isa_name(isa) << " limbs=" << limbs;
    }
  }
}

}  // namespace
}  // namespace pr::modular::simd
