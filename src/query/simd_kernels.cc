#include "query/simd_kernels.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace remi {

namespace {

/// Words per cap-check block in the capped popcount kernels: one
/// horizontal reduction (and early-exit opportunity) per 1 KiB of ANDed
/// data. Must be a multiple of every vector width (8 words).
constexpr size_t kCapBlockWords = 128;

/// Words in the *first* block of a capped kernel. Caps in the search
/// kernel are tiny (|T| + k), and dense operands blow through them
/// within a few words — a scalar loop exits almost immediately there,
/// so a full 1 KiB first block would hand the common case back. One or
/// two vectors' worth keeps the early exit nearly as tight as scalar
/// while long tails still amortize reductions over full blocks. Must be
/// a multiple of every vector width.
constexpr size_t kCapFirstBlockWords = 16;

// ---------------------------------------------------------------------------
// Scalar (portable oracle). Semantics-defining: every SIMD variant must be
// element-identical, and the property tests compare against these.
// ---------------------------------------------------------------------------

size_t AndPopcountCappedScalar(const uint64_t* a, const uint64_t* b, size_t n,
                               size_t cap) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
    if (count > cap) return count;
  }
  return count;
}

bool SubsetScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

size_t AndStorePopcountScalar(const uint64_t* a, const uint64_t* b,
                              uint64_t* out, size_t n) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t word = a[i] & b[i];
    out[i] = word;
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

constexpr SetKernels kScalarKernels = {AndPopcountCappedScalar, SubsetScalar,
                                       AndStorePopcountScalar};

// ---------------------------------------------------------------------------
// AVX2: 4 words per vector; popcount via the pshufb nibble lookup
// (Muła et al., "Faster population counts using AVX2 instructions") with
// psadbw widening the per-byte counts straight to 64-bit lanes.
// ---------------------------------------------------------------------------
#if defined(__x86_64__)

__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline uint64_t Reduce256(__m256i v) {
  const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<uint64_t>(_mm_extract_epi64(sum, 1));
}

__attribute__((target("avx2,popcnt"))) size_t AndPopcountCappedAvx2(
    const uint64_t* a, const uint64_t* b, size_t n, size_t cap) {
  size_t count = 0;
  size_t i = 0;
  size_t block_words = kCapFirstBlockWords;
  while (i + 4 <= n) {
    const size_t block_end = std::min(n, i + block_words) & ~size_t{3};
    block_words = kCapBlockWords;
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= block_end; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
    }
    count += Reduce256(acc);
    if (count > cap) return count;
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
    if (count > cap) return count;
  }
  return count;
}

__attribute__((target("avx2"))) bool SubsetAvx2(const uint64_t* a,
                                                const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // testc sets CF iff (~vb & va) == 0, i.e. va ⊆ vb word-wise.
    if (!_mm256_testc_si256(vb, va)) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

__attribute__((target("avx2,popcnt"))) size_t AndStorePopcountAvx2(
    const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i word = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), word);
    acc = _mm256_add_epi64(acc, Popcount256(word));
  }
  size_t count = Reduce256(acc);
  for (; i < n; ++i) {
    const uint64_t word = a[i] & b[i];
    out[i] = word;
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

constexpr SetKernels kAvx2Kernels = {AndPopcountCappedAvx2, SubsetAvx2,
                                     AndStorePopcountAvx2};

// ---------------------------------------------------------------------------
// AVX-512 + VPOPCNTDQ: 8 words per vector, native 64-bit lane popcount,
// masked loads/stores for exact tails.
// ---------------------------------------------------------------------------
#define REMI_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512vpopcntdq"

// GCC 12's AVX-512 headers route _mm512_loadu_si512 through
// _mm512_undefined_epi32(), whose self-initialized temporary trips
// -Wmaybe-uninitialized (GCC PR105593). The value is overwritten by the
// load before any use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

__attribute__((target(REMI_AVX512_TARGET))) size_t AndPopcountCappedAvx512(
    const uint64_t* a, const uint64_t* b, size_t n, size_t cap) {
  size_t count = 0;
  size_t i = 0;
  size_t block_words = kCapFirstBlockWords;
  while (i + 8 <= n) {
    const size_t block_end = std::min(n, i + block_words) & ~size_t{7};
    block_words = kCapBlockWords;
    __m512i acc = _mm512_setzero_si512();
    for (; i + 8 <= block_end; i += 8) {
      const __m512i va = _mm512_loadu_si512(a + i);
      const __m512i vb = _mm512_loadu_si512(b + i);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
    }
    count += static_cast<size_t>(_mm512_reduce_add_epi64(acc));
    if (count > cap) return count;
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(m, b + i);
    count += static_cast<size_t>(_mm512_reduce_add_epi64(
        _mm512_popcnt_epi64(_mm512_and_si512(va, vb))));
  }
  return count;
}

__attribute__((target(REMI_AVX512_TARGET))) bool SubsetAvx512(
    const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i diff = _mm512_andnot_si512(vb, va);  // va & ~vb
    if (_mm512_test_epi64_mask(diff, diff) != 0) return false;
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(m, b + i);
    const __m512i diff = _mm512_andnot_si512(vb, va);
    if (_mm512_test_epi64_mask(diff, diff) != 0) return false;
  }
  return true;
}

__attribute__((target(REMI_AVX512_TARGET))) size_t AndStorePopcountAvx512(
    const uint64_t* a, const uint64_t* b, uint64_t* out, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i word = _mm512_and_si512(va, vb);
    _mm512_storeu_si512(out + i, word);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(word));
  }
  size_t count = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(m, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(m, b + i);
    const __m512i word = _mm512_and_si512(va, vb);
    _mm512_mask_storeu_epi64(out + i, m, word);
    count += static_cast<size_t>(
        _mm512_reduce_add_epi64(_mm512_popcnt_epi64(word)));
  }
  return count;
}

#pragma GCC diagnostic pop

constexpr SetKernels kAvx512Kernels = {AndPopcountCappedAvx512, SubsetAvx512,
                                       AndStorePopcountAvx512};

#elif defined(__aarch64__)

// ---------------------------------------------------------------------------
// NEON (baseline on AArch64): 2 words per vector, byte popcount (vcnt)
// reduced with vaddv.
// ---------------------------------------------------------------------------

inline uint64_t PopcountPair(uint64x2_t v) {
  // 16 byte-counts (each <= 8) summed horizontally: fits u16 easily.
  return vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(v)));
}

size_t AndPopcountCappedNeon(const uint64_t* a, const uint64_t* b, size_t n,
                             size_t cap) {
  size_t count = 0;
  size_t i = 0;
  size_t block_words = kCapFirstBlockWords;
  while (i + 2 <= n) {
    const size_t block_end = std::min(n, i + block_words) & ~size_t{1};
    block_words = kCapBlockWords;
    uint64_t block = 0;
    for (; i + 2 <= block_end; i += 2) {
      block += PopcountPair(vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
    }
    count += block;
    if (count > cap) return count;
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
    if (count > cap) return count;
  }
  return count;
}

bool SubsetNeon(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // vbic(a, b) = a & ~b; any set bit disproves the subset.
    const uint64x2_t diff = vbicq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    if (vmaxvq_u32(vreinterpretq_u32_u64(diff)) != 0) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

size_t AndStorePopcountNeon(const uint64_t* a, const uint64_t* b,
                            uint64_t* out, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t word = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    vst1q_u64(out + i, word);
    count += PopcountPair(word);
  }
  for (; i < n; ++i) {
    const uint64_t word = a[i] & b[i];
    out[i] = word;
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

constexpr SetKernels kNeonKernels = {AndPopcountCappedNeon, SubsetNeon,
                                     AndStorePopcountNeon};

#endif  // architecture variants

}  // namespace

const SetKernels& SetKernelsFor(SimdLevel level) {
  const CpuFeatures& features = DetectCpuFeatures();
  const int tier = static_cast<int>(level);
#if defined(__x86_64__)
  if (tier >= static_cast<int>(SimdLevel::kAvx512) && features.avx512) {
    return kAvx512Kernels;
  }
  if (tier >= static_cast<int>(SimdLevel::kAvx2) && features.avx2) {
    return kAvx2Kernels;
  }
#elif defined(__aarch64__)
  if (tier >= static_cast<int>(SimdLevel::kNeon) && features.neon) {
    return kNeonKernels;
  }
#else
  (void)features;
  (void)tier;
#endif
  return kScalarKernels;
}

const SetKernels& ActiveSetKernels() {
  return SetKernelsFor(ActiveSimdLevel());
}

}  // namespace remi
