#include "src/util/regression.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace t10 {
namespace {

TEST(LinearRegressionTest, RecoversExactLinearModel) {
  LinearRegression reg;
  // y = 3 + 2a - 0.5b.
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    double a = rng.UniformReal(0, 100);
    double b = rng.UniformReal(0, 100);
    reg.AddSample({1.0, a, b}, 3.0 + 2.0 * a - 0.5 * b);
  }
  ASSERT_TRUE(reg.Fit());
  EXPECT_NEAR(reg.coefficients()[0], 3.0, 1e-8);
  EXPECT_NEAR(reg.coefficients()[1], 2.0, 1e-10);
  EXPECT_NEAR(reg.coefficients()[2], -0.5, 1e-10);
  EXPECT_NEAR(reg.RSquared(), 1.0, 1e-12);
  EXPECT_NEAR(reg.Predict(std::vector<double>{1.0, 10.0, 4.0}), 3.0 + 20.0 - 2.0, 1e-8);
}

TEST(LinearRegressionTest, NoisyFitHasHighRSquared) {
  LinearRegression reg;
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    double a = rng.UniformReal(1, 1000);
    double y = 5.0 + 0.25 * a;
    reg.AddSample({1.0, a}, y * (1.0 + rng.Gaussian(0, 0.01)));
  }
  ASSERT_TRUE(reg.Fit());
  EXPECT_GT(reg.RSquared(), 0.99);
}

TEST(LinearRegressionTest, SingularSystemFails) {
  LinearRegression reg;
  // Two identical feature columns -> singular normal equations.
  for (int i = 0; i < 10; ++i) {
    double a = i;
    reg.AddSample({a, a}, 2.0 * a);
  }
  EXPECT_FALSE(reg.Fit());
}

TEST(LinearRegressionTest, FewerSamplesThanFeaturesFails) {
  LinearRegression reg;
  reg.AddSample({1.0, 2.0, 3.0}, 1.0);
  EXPECT_FALSE(reg.Fit());
}

TEST(LinearRegressionTest, EmptyFails) {
  LinearRegression reg;
  EXPECT_FALSE(reg.Fit());
}

}  // namespace
}  // namespace t10
