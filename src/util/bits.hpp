// Bit- and arithmetic helpers shared across all subsystems.
//
// Everything here is constexpr-friendly and free of simulator state; these are
// the "address math" primitives used by burst splitting, bank interleaving and
// the beat packers.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>

namespace axipack::util {

/// Integer ceil-division. `d` must be positive.
template <typename T>
constexpr T ceil_div(T n, T d) {
  static_assert(std::is_integral_v<T>);
  assert(d > 0);
  return static_cast<T>((n + d - 1) / d);
}

/// Round `n` up to the next multiple of `align` (align > 0, need not be pow2).
template <typename T>
constexpr T round_up(T n, T align) {
  return ceil_div(n, align) * align;
}

/// Round `n` down to the previous multiple of `align`.
template <typename T>
constexpr T round_down(T n, T align) {
  assert(align > 0);
  return static_cast<T>((n / align) * align);
}

/// True iff `v` is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) {
  assert(is_pow2(v));
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Index of the lowest set bit of a nonzero mask: `for (m = mask; m != 0;
/// m &= m - 1) lowest_bit(m)` walks a bitmask's members in ascending order.
constexpr unsigned lowest_bit(std::uint64_t m) {
  assert(m != 0);
  return static_cast<unsigned>(std::countr_zero(m));
}

/// Ceiling log2 (log2_ceil(1) == 0).
constexpr unsigned log2_ceil(std::uint64_t v) {
  assert(v != 0);
  return static_cast<unsigned>(64 - std::countl_zero(v - 1));
}

/// Primality test by trial division; bank counts are tiny so this is plenty.
constexpr bool is_prime(std::uint64_t v) {
  if (v < 2) return false;
  for (std::uint64_t d = 2; d * d <= v; ++d) {
    if (v % d == 0) return false;
  }
  return true;
}

/// AXI4 encodes the per-beat size as log2(bytes); helpers to convert both ways.
constexpr unsigned axsize_of_bytes(unsigned bytes) { return log2_exact(bytes); }
constexpr unsigned bytes_of_axsize(unsigned axsize) { return 1u << axsize; }

}  // namespace axipack::util
