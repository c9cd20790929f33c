// Vectorized word-level set kernels behind a function-pointer dispatch.
//
// The steady state of the REMI search kernel (remi/remi.cc) is a stream of
// three operations over 64-bit bitmap words — AND+popcount (the count-first
// node decision), AND-store+popcount (arena-frame materialization) and
// subset tests (redundant-subtree pruning). (The one-time bitmap builds
// of the pinned-queue forced twins are a plain loop in entity_set.cc: no
// vector variant beat it.) Each operation has a portable
// scalar implementation (the correctness oracle) and SIMD variants
// (AVX2 / AVX-512-VPOPCNTDQ / NEON) selected at runtime from the CPU probe
// in util/cpu_features.h. All variants are compiled into every binary via
// per-function target attributes; no build flags change, and the scalar
// path remains selectable everywhere via REMI_SIMD=scalar or
// ForceSimdLevel().
//
// Contracts shared by all variants (the property tests in
// tests/query/simd_kernels_test.cc enforce them against the scalar oracle,
// including unaligned word counts and all-zero/all-one words):
//   * buffers need only natural (8-byte) alignment — vector loads are
//     unaligned; tails of fewer-than-vector words are handled exactly;
//   * and_popcount_capped may return any value > cap once the true count
//     exceeds cap (early exit); a return <= cap is the exact cardinality;
//   * aliasing: and_store_popcount permits out == a or out == b.

#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"

namespace remi {

/// One resolved set of kernel entry points (all non-null).
struct SetKernels {
  /// |popcount(a & b)| over `n` words with early exit past `cap`.
  size_t (*and_popcount_capped)(const uint64_t* a, const uint64_t* b,
                                size_t n, size_t cap);
  /// True iff (a & ~b) == 0 over `n` words (a ⊆ b on the word range).
  bool (*subset)(const uint64_t* a, const uint64_t* b, size_t n);
  /// out[i] = a[i] & b[i] for i < n; returns popcount of the result.
  size_t (*and_store_popcount)(const uint64_t* a, const uint64_t* b,
                               uint64_t* out, size_t n);
};

/// The kernels for the currently active dispatch level (one relaxed
/// atomic read + table index — cheap enough for per-call use, and
/// ForceSimdLevel() takes effect immediately).
const SetKernels& ActiveSetKernels();

/// The kernels a specific level would use, clamped to what this CPU
/// supports (for the oracle comparisons in tests and bench/micro_simd).
const SetKernels& SetKernelsFor(SimdLevel level);

}  // namespace remi
