// Tests for the tridiagonal solver and the Markov-absorption machinery of
// Section 4.2 / Figure 4.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "hdc/base/rng.hpp"
#include "hdc/stats/markov_absorption.hpp"
#include "hdc/stats/tridiagonal.hpp"

namespace {

namespace stats = hdc::stats;

TEST(TridiagonalTest, SolvesKnownSystem) {
  // [ 2 1 0 ] [x]   [ 4 ]        x = 1, y = 2, z = 3
  // [ 1 3 1 ] [y] = [10]
  // [ 0 1 2 ] [z]   [ 8 ]
  const std::vector<double> lower{1.0, 1.0};
  const std::vector<double> diag{2.0, 3.0, 2.0};
  const std::vector<double> upper{1.0, 1.0};
  const std::vector<double> rhs{4.0, 10.0, 8.0};
  const auto x = stats::solve_tridiagonal(lower, diag, upper, rhs);
  ASSERT_EQ(x.size(), 3U);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(TridiagonalTest, SolvesSingleEquation) {
  const auto x = stats::solve_tridiagonal({}, std::vector<double>{4.0}, {},
                                          std::vector<double>{12.0});
  ASSERT_EQ(x.size(), 1U);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
}

TEST(TridiagonalTest, MatchesResidualOnRandomDominantSystem) {
  hdc::Rng rng(1);
  const std::size_t n = 200;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      lower[i] = rng.uniform(-1.0, 1.0);
      upper[i] = rng.uniform(-1.0, 1.0);
    }
    diag[i] = rng.uniform(3.0, 5.0);  // diagonally dominant
    rhs[i] = rng.uniform(-10.0, 10.0);
  }
  const auto x = stats::solve_tridiagonal(lower, diag, upper, rhs);
  // Verify A x == rhs.
  for (std::size_t i = 0; i < n; ++i) {
    double row = diag[i] * x[i];
    if (i > 0) {
      row += lower[i - 1] * x[i - 1];
    }
    if (i + 1 < n) {
      row += upper[i] * x[i + 1];
    }
    EXPECT_NEAR(row, rhs[i], 1e-9) << "row " << i;
  }
}

TEST(TridiagonalTest, ValidatesShapes) {
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 1.0};
  EXPECT_THROW((void)stats::solve_tridiagonal({}, {}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)stats::solve_tridiagonal(two, two, one, two),
               std::invalid_argument);
  EXPECT_THROW((void)stats::solve_tridiagonal({}, two, one, one),
               std::invalid_argument);
}

TEST(TridiagonalTest, RejectsZeroPivot) {
  EXPECT_THROW((void)stats::solve_tridiagonal({}, std::vector<double>{0.0}, {},
                                              std::vector<double>{1.0}),
               std::domain_error);
}

struct AbsorptionCase {
  std::size_t dimension;
  std::size_t target;
};

// Names the case in test listings instead of gtest's raw byte dump.
void PrintTo(const AbsorptionCase& c, std::ostream* os) {
  *os << "d" << c.dimension << "_target" << c.target;
}

class AbsorptionTest : public ::testing::TestWithParam<AbsorptionCase> {};

TEST_P(AbsorptionTest, RecurrenceAgreesWithTridiagonalSolve) {
  const auto [d, target] = GetParam();
  const auto by_recurrence = stats::absorption_times(d, target);
  const auto by_solver = stats::absorption_times_tridiagonal(d, target);
  ASSERT_EQ(by_recurrence.size(), target + 1);
  ASSERT_EQ(by_solver.size(), target + 1);
  for (std::size_t k = 0; k <= target; ++k) {
    if (by_recurrence[k] < 1e-12 && by_solver[k] < 1e-12) {
      continue;  // the absorbed state is exactly zero in both
    }
    EXPECT_NEAR(by_recurrence[k] / by_solver[k], 1.0, 1e-6) << "state " << k;
  }
}

TEST_P(AbsorptionTest, TimesDecreaseTowardAbsorption) {
  const auto [d, target] = GetParam();
  const auto u = stats::absorption_times(d, target);
  for (std::size_t k = 0; k < target; ++k) {
    // Strict decrease holds mathematically (u(k) - u(k+1) = v(k) > 0); in
    // doubles the step can vanish when u is astronomically large (deep
    // super-equilibrium targets), so only require strictness where the
    // magnitude leaves room for it.
    if (u[k] < 1e12) {
      EXPECT_GT(u[k], u[k + 1]) << "state " << k;
    } else {
      EXPECT_GE(u[k], u[k + 1]) << "state " << k;
    }
  }
  EXPECT_DOUBLE_EQ(u[target], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbsorptionTest,
    ::testing::Values(AbsorptionCase{64, 8}, AbsorptionCase{256, 64},
                      AbsorptionCase{1'000, 250}, AbsorptionCase{10'000, 500},
                      AbsorptionCase{10'000, 4'500}, AbsorptionCase{100, 100}));

TEST(AbsorptionTest, FirstStepsAreNearlyFree) {
  // From distance 0, every step moves away, so u(0) - u(1) == 1; early
  // states cost barely more than one step each in a large space.
  const auto u = stats::absorption_times(10'000, 100);
  EXPECT_NEAR(u[0] - u[1], 1.0, 1e-12);
  EXPECT_NEAR(u[0], 100.0, 2.0);  // ~1 flip per bit this far from saturation
}

TEST(AbsorptionTest, MonteCarloMatchesAnalytic) {
  hdc::Rng rng(7);
  const std::size_t d = 256;
  const std::size_t target = 64;
  const double analytic = stats::expected_flips_to_distance(d, target);
  const double simulated =
      stats::simulate_absorption_steps(d, target, 3'000, rng);
  EXPECT_NEAR(simulated / analytic, 1.0, 0.05);
}

TEST(AbsorptionTest, ValidatesArguments) {
  EXPECT_THROW((void)stats::absorption_times(0, 1), std::invalid_argument);
  EXPECT_THROW((void)stats::absorption_times(10, 0), std::invalid_argument);
  EXPECT_THROW((void)stats::absorption_times(10, 11), std::invalid_argument);
  hdc::Rng rng(1);
  EXPECT_THROW((void)stats::simulate_absorption_steps(10, 5, 0, rng),
               std::invalid_argument);
}

TEST(FlipCalculusTest, ClosedFormsRoundTrip) {
  const std::size_t d = 10'000;
  for (const double delta : {0.01, 0.1, 0.25, 0.4, 0.49}) {
    const double flips = stats::flips_for_expected_distance(d, delta);
    EXPECT_NEAR(stats::expected_distance_after_flips(d, flips), delta, 1e-12)
        << "delta = " << delta;
  }
  EXPECT_DOUBLE_EQ(stats::flips_for_expected_distance(d, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::expected_distance_after_flips(d, 0.0), 0.0);
}

TEST(FlipCalculusTest, DistanceSaturatesAtHalf) {
  const std::size_t d = 1'000;
  EXPECT_LT(stats::expected_distance_after_flips(d, 1e9), 0.5 + 1e-12);
  EXPECT_NEAR(stats::expected_distance_after_flips(d, 1e9), 0.5, 1e-6);
}

TEST(FlipCalculusTest, ValidatesArguments) {
  EXPECT_THROW((void)stats::flips_for_expected_distance(0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)stats::flips_for_expected_distance(100, 0.5),
               std::invalid_argument);
  EXPECT_THROW((void)stats::flips_for_expected_distance(100, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)stats::expected_distance_after_flips(100, -1.0),
               std::invalid_argument);
}

}  // namespace
