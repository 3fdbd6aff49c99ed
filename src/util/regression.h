// Ordinary least-squares linear regression, used to fit T10's kernel cost
// models from profiled sub-task executions (paper §4.3.1).

#ifndef T10_SRC_UTIL_REGRESSION_H_
#define T10_SRC_UTIL_REGRESSION_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace t10 {

// Fits y ~= X * beta in the least-squares sense via the normal equations with
// partial-pivot Gaussian elimination. Callers include a constant feature
// (column of ones) themselves if they want an intercept.
class LinearRegression {
 public:
  LinearRegression() = default;

  // Adds one observation. All observations must have the same feature count.
  void AddSample(std::span<const double> features, double target);
  void AddSample(std::initializer_list<double> features, double target) {
    AddSample(std::span<const double>(features.begin(), features.size()), target);
  }

  // Solves for the coefficients. Returns false if the system is singular
  // (e.g. fewer samples than features); coefficients are then left empty.
  bool Fit();

  // Predicted value for a feature vector; requires a successful Fit().
  double Predict(std::span<const double> features) const;

  // Coefficient of determination over the training set; requires Fit().
  double RSquared() const;

  const std::vector<double>& coefficients() const { return coefficients_; }
  std::size_t num_samples() const { return targets_.size(); }

 private:
  std::size_t num_features_ = 0;
  std::vector<double> rows_;  // Row-major: num_features_ values per sample.
  std::vector<double> targets_;
  std::vector<double> coefficients_;
};

}  // namespace t10

#endif  // T10_SRC_UTIL_REGRESSION_H_
