#include "src/util/math_util.h"

#include <algorithm>

#include "src/util/logging.h"

namespace t10 {

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  T10_CHECK_GT(b, 0);
  T10_CHECK_GE(a, 0);
  return (a + b - 1) / b;
}

std::int64_t RoundUp(std::int64_t a, std::int64_t b) { return CeilDiv(a, b) * b; }

std::int64_t Product(const std::vector<std::int64_t>& values) {
  std::int64_t product = 1;
  for (std::int64_t v : values) {
    T10_CHECK_GE(v, 0);
    if (v != 0) {
      T10_CHECK_LE(product, INT64_MAX / v) << "Product overflow";
    }
    product *= v;
  }
  return product;
}

std::vector<std::int64_t> Divisors(std::int64_t n) {
  T10_CHECK_GT(n, 0);
  std::vector<std::int64_t> divisors;
  ForEachDivisor(n, [&](std::int64_t d) { divisors.push_back(d); });
  return divisors;
}

namespace {

void EnumerateFactorizations(std::int64_t remaining, int slots_left,
                             std::vector<std::int64_t>& current,
                             std::vector<std::vector<std::int64_t>>& out) {
  if (slots_left == 1) {
    current.push_back(remaining);
    out.push_back(current);
    current.pop_back();
    return;
  }
  for (std::int64_t d : Divisors(remaining)) {
    current.push_back(d);
    EnumerateFactorizations(remaining / d, slots_left - 1, current, out);
    current.pop_back();
  }
}

std::int64_t CountFactorizations(std::int64_t remaining, int slots_left) {
  if (slots_left == 1) {
    return 1;
  }
  std::int64_t total = 0;
  for (std::int64_t d : Divisors(remaining)) {
    total += CountFactorizations(remaining / d, slots_left - 1);
  }
  return total;
}

}  // namespace

std::vector<std::vector<std::int64_t>> OrderedFactorizations(std::int64_t n, int num_factors) {
  T10_CHECK_GT(n, 0);
  T10_CHECK_GT(num_factors, 0);
  std::vector<std::vector<std::int64_t>> out;
  std::vector<std::int64_t> current;
  EnumerateFactorizations(n, num_factors, current, out);
  return out;
}

std::int64_t CountOrderedFactorizations(std::int64_t n, int num_factors) {
  T10_CHECK_GT(n, 0);
  T10_CHECK_GT(num_factors, 0);
  return CountFactorizations(n, num_factors);
}

std::int64_t Gcd(std::int64_t a, std::int64_t b) {
  T10_CHECK_GE(a, 0);
  T10_CHECK_GE(b, 0);
  while (b != 0) {
    std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t Lcm(std::int64_t a, std::int64_t b) {
  T10_CHECK_GT(a, 0);
  T10_CHECK_GT(b, 0);
  return a / Gcd(a, b) * b;
}

bool IsPowerOfTwo(std::int64_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::int64_t LargestDivisorAtMost(std::int64_t n, std::int64_t limit) {
  T10_CHECK_GT(n, 0);
  T10_CHECK_GE(limit, 1);
  std::int64_t best = 1;
  for (std::int64_t d : Divisors(n)) {
    if (d <= limit) {
      best = std::max(best, d);
    }
  }
  return best;
}

}  // namespace t10
