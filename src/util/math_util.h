// Small integer helpers used throughout plan enumeration: divisor and
// factorization enumeration, ceiling division, and padding arithmetic.

#ifndef T10_SRC_UTIL_MATH_UTIL_H_
#define T10_SRC_UTIL_MATH_UTIL_H_

#include <cstdint>
#include <vector>

namespace t10 {

// Ceiling division for non-negative integers; CHECKs that `b > 0`.
std::int64_t CeilDiv(std::int64_t a, std::int64_t b);

// Rounds `a` up to the next multiple of `b`; CHECKs that `b > 0`.
std::int64_t RoundUp(std::int64_t a, std::int64_t b);

// Product of all elements; CHECKs against overflow of int64.
std::int64_t Product(const std::vector<std::int64_t>& values);

// All positive divisors of `n`, sorted ascending. CHECKs that `n > 0`.
std::vector<std::int64_t> Divisors(std::int64_t n);

// Calls `visit` with each positive divisor of `n` > 0, ascending, without
// allocating: the divisors up to sqrt(n), then their cofactors.
template <typename Visit>
void ForEachDivisor(std::int64_t n, Visit&& visit) {
  std::int64_t d = 1;
  for (; d * d < n; ++d) {
    if (n % d == 0) {
      visit(d);
    }
  }
  if (d * d > n) {
    --d;  // Its cofactor was visited above.
  }
  for (; d >= 1; --d) {
    if (n % d == 0) {
      visit(n / d);
    }
  }
}

// Enumerates all ordered tuples (f_0, ..., f_{k-1}) with each f_i >= 1 and
// product(f) == n, where k == num_factors. Used for splitting a core-count
// budget across tensor dimensions. The result can be large; callers bound n.
std::vector<std::vector<std::int64_t>> OrderedFactorizations(std::int64_t n, int num_factors);

// Number of ordered factorizations of n into num_factors parts, computed
// without materializing them (used for reporting complete search-space sizes).
std::int64_t CountOrderedFactorizations(std::int64_t n, int num_factors);

// Greatest common divisor / least common multiple for positive integers.
std::int64_t Gcd(std::int64_t a, std::int64_t b);
std::int64_t Lcm(std::int64_t a, std::int64_t b);

// True if `n` is a power of two (n >= 1).
bool IsPowerOfTwo(std::int64_t n);

// The largest divisor of `n` that is <= `limit` (limit >= 1).
std::int64_t LargestDivisorAtMost(std::int64_t n, std::int64_t limit);

}  // namespace t10

#endif  // T10_SRC_UTIL_MATH_UTIL_H_
