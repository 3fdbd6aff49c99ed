#include "src/util/regression.h"

#include <cmath>

#include "src/util/logging.h"

namespace t10 {

void LinearRegression::AddSample(std::span<const double> features, double target) {
  if (targets_.empty()) {
    num_features_ = features.size();
  } else {
    T10_CHECK_EQ(features.size(), num_features_);
  }
  rows_.insert(rows_.end(), features.begin(), features.end());
  targets_.push_back(target);
}

bool LinearRegression::Fit() {
  coefficients_.clear();
  if (targets_.empty()) {
    return false;
  }
  const std::size_t n = targets_.size();
  const std::size_t k = num_features_;
  if (n < k) {
    return false;
  }

  // Normal equations: (X^T X) beta = X^T y.
  std::vector<std::vector<double>> a(k, std::vector<double>(k, 0.0));
  std::vector<double> b(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = rows_.data() + i * k;
    for (std::size_t r = 0; r < k; ++r) {
      b[r] += row[r] * targets_[i];
      for (std::size_t c = 0; c < k; ++c) {
        a[r][c] += row[r] * row[c];
      }
    }
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot][col]) < 1e-30) {
      return false;
    }
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) {
        continue;
      }
      double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < k; ++c) {
        a[r][c] -= factor * a[col][c];
      }
      b[r] -= factor * b[col];
    }
  }

  coefficients_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    coefficients_[i] = b[i] / a[i][i];
  }
  return true;
}

double LinearRegression::Predict(std::span<const double> features) const {
  T10_CHECK_EQ(features.size(), coefficients_.size());
  double y = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    y += features[i] * coefficients_[i];
  }
  return y;
}

double LinearRegression::RSquared() const {
  T10_CHECK(!coefficients_.empty()) << "Fit() must succeed before RSquared()";
  double mean = 0.0;
  for (double t : targets_) {
    mean += t;
  }
  mean /= static_cast<double>(targets_.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const double pred =
        Predict(std::span<const double>(rows_).subspan(i * num_features_, num_features_));
    ss_res += (targets_[i] - pred) * (targets_[i] - pred);
    ss_tot += (targets_[i] - mean) * (targets_[i] - mean);
  }
  if (ss_tot == 0.0) {
    return ss_res == 0.0 ? 1.0 : 0.0;
  }
  return 1.0 - ss_res / ss_tot;
}

}  // namespace t10
