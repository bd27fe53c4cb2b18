/**
 * @file
 * Tests for the coordinate-descent LASSO (Algorithm 1, step 3),
 * including agreement with the residual-update reference solver.
 */
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "../support/reference_lasso.hpp"
#include "models/lasso.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

/** y depends on features 0 and 3 only; 10 features total. */
void
sparseProblem(Matrix &x, std::vector<double> &y, Rng &rng,
              size_t n = 400)
{
    x = Matrix(n, 10);
    y.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 10; ++c)
            x(i, c) = rng.normal();
        y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 3) + rng.normal(0, 0.1);
    }
}

TEST(Lasso, RecoversSparseSupport)
{
    Rng rng(1);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const LassoFit fit = solver.fit(x, y, 0.2);
    const auto support = fit.support();
    ASSERT_EQ(support.size(), 2u);
    EXPECT_EQ(support[0], 0u);
    EXPECT_EQ(support[1], 3u);
    EXPECT_GT(fit.coefficients[0], 1.5);
    EXPECT_LT(fit.coefficients[3], -1.0);
}

TEST(Lasso, LambdaMaxKillsEveryCoefficient)
{
    Rng rng(2);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const double top = solver.lambdaMax(x, y);
    const LassoFit fit = solver.fit(x, y, top * 1.0001);
    EXPECT_TRUE(fit.support().empty());
}

TEST(Lasso, ZeroLambdaApproachesLeastSquares)
{
    Rng rng(3);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const LassoFit fit = solver.fit(x, y, 0.0);
    EXPECT_NEAR(fit.coefficients[0], 3.0, 0.05);
    EXPECT_NEAR(fit.coefficients[3], -2.0, 0.05);
}

TEST(Lasso, CoefficientsShrinkMonotonicallyInLambda)
{
    Rng rng(4);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    double prev_norm = 1e300;
    for (double lambda : {0.01, 0.1, 0.5, 1.0, 2.0}) {
        const LassoFit fit = solver.fit(x, y, lambda);
        double norm = 0.0;
        for (double c : fit.coefficients)
            norm += std::fabs(c);
        EXPECT_LE(norm, prev_norm + 1e-9);
        prev_norm = norm;
    }
}

TEST(Lasso, InterceptAbsorbsTargetMean)
{
    Rng rng(5);
    const size_t n = 300;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = rng.normal();
        y[i] = 250.0 + 0.5 * x(i, 0);  // Server-scale static power.
    }
    const LassoFit fit = LassoSolver().fit(x, y, 5.0);
    EXPECT_TRUE(fit.support().empty());
    EXPECT_NEAR(fit.intercept, 250.0, 0.2);
}

TEST(Lasso, TargetSupportRespectsCap)
{
    Rng rng(6);
    const size_t n = 400, p = 30;
    Matrix x(n, p);
    std::vector<double> y(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < p; ++c)
            x(i, c) = rng.normal();
        // Many weak signals: unconstrained support would be large.
        for (size_t c = 0; c < p; ++c)
            y[i] += 0.5 * x(i, c);
        y[i] += rng.normal(0, 0.05);
    }
    const LassoFit fit =
        LassoSolver().fitWithTargetSupport(x, y, 12);
    EXPECT_LE(fit.support().size(), 12u);
    EXPECT_GE(fit.support().size(), 1u);
}

TEST(Lasso, TargetSupportFindsTrueSparseSet)
{
    Rng rng(7);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);
    const LassoFit fit = LassoSolver().fitWithTargetSupport(x, y, 5);
    const auto support = fit.support();
    ASSERT_LE(support.size(), 5u);
    // Must contain the two true features.
    EXPECT_NE(std::find(support.begin(), support.end(), 0u),
              support.end());
    EXPECT_NE(std::find(support.begin(), support.end(), 3u),
              support.end());
}

TEST(Lasso, ConstantColumnsNeverEnterTheSupport)
{
    Rng rng(8);
    const size_t n = 200;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = 42.0;      // Constant.
        x(i, 2) = rng.normal();
        y[i] = x(i, 0) + rng.normal(0, 0.1);
    }
    const LassoFit fit = LassoSolver().fit(x, y, 0.05);
    for (size_t s : fit.support())
        EXPECT_NE(s, 1u);
}

TEST(Lasso, ShapeAndParameterChecksPanic)
{
    Matrix x(3, 1);
    LassoSolver solver;
    EXPECT_DEATH(solver.fit(x, {1.0, 2.0}, 0.1), "shape mismatch");
    EXPECT_DEATH(solver.fit(x, {1.0, 2.0, 3.0}, -0.1),
                 "negative lambda");
}

/** Pairs of columns at r = 0.95, the regime screening leaves behind. */
void
correlatedPairs(Matrix &x, std::vector<double> &y, Rng &rng)
{
    const size_t n = 200, pairs = 8;
    const double r = 0.95, rest = std::sqrt(1.0 - r * r);
    x = Matrix(n, 2 * pairs);
    y.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t q = 0; q < pairs; ++q) {
            x(i, 2 * q) = rng.normal();
            x(i, 2 * q + 1) = r * x(i, 2 * q) + rest * rng.normal();
        }
        y[i] = 2.0 * x(i, 0) + 1.5 * x(i, 1) - x(i, 5) +
               0.5 * x(i, 8) + rng.normal(0, 0.2);
    }
}

/** More features than rows: n = 30, p = 60, y on three of them. */
void
widerThanTall(Matrix &x, std::vector<double> &y, Rng &rng)
{
    const size_t n = 30, p = 60;
    x = Matrix(n, p);
    y.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < p; ++c)
            x(i, c) = rng.normal();
        y[i] = 3.0 * x(i, 7) - 2.0 * x(i, 21) + x(i, 40) +
               rng.normal(0, 0.1);
    }
}

/** Server-scale power over eight counters, two of them constant. */
void
withConstantColumns(Matrix &x, std::vector<double> &y, Rng &rng)
{
    const size_t n = 150, p = 8;
    x = Matrix(n, p);
    y.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < p; ++c)
            x(i, c) = 10.0 * rng.normal() + 50.0;
        x(i, 1) = 42.0;
        x(i, 4) = 0.0;
        y[i] = 250.0 + 0.8 * x(i, 0) + 0.3 * x(i, 2) - 0.5 * x(i, 5) +
               rng.normal(0, 1.0);
    }
}

/** Relative agreement to 1e-9 (exact zeros must match exactly). */
void
expectRelativelyNear(double value, double reference, const char *what)
{
    EXPECT_LE(std::fabs(value - reference), 1e-9 * std::fabs(reference))
        << what << ": " << value << " vs " << reference;
}

/** One LassoSolver fit against the reference solver's. */
void
expectSameFit(const LassoFit &fit, const LassoFit &reference)
{
    EXPECT_EQ(fit.support(), reference.support());
    expectRelativelyNear(fit.lambda, reference.lambda, "lambda");
    expectRelativelyNear(fit.intercept, reference.intercept, "intercept");
    ASSERT_EQ(fit.coefficients.size(), reference.coefficients.size());
    for (size_t c = 0; c < fit.coefficients.size(); ++c) {
        SCOPED_TRACE("coefficient " + std::to_string(c));
        expectRelativelyNear(fit.coefficients[c],
                             reference.coefficients[c], "coefficient");
    }
    EXPECT_LE(std::max(fit.iterations, reference.iterations) -
                  std::min(fit.iterations, reference.iterations),
              1u)
        << fit.iterations << " vs " << reference.iterations << " sweeps";
}

/**
 * Covariance-update and residual-update coordinate descent run the
 * same cyclic iterates with the same stopping rule, so every entry
 * point must agree up to rounding: lambdaMax, fits down a lambda
 * range, and the capped-support path search.
 */
void
expectMatchesReference(const Matrix &x, const std::vector<double> &y)
{
    const LassoSolver solver;
    const testing_support::ReferenceLassoSolver reference;
    const double top = reference.lambdaMax(x, y);
    ASSERT_GT(top, 0.0);
    expectRelativelyNear(solver.lambdaMax(x, y), top, "lambdaMax");
    for (double frac : {1.0001, 0.9, 0.3, 0.1, 0.01, 0.001}) {
        SCOPED_TRACE("lambda = " + std::to_string(frac) + " lambdaMax");
        expectSameFit(solver.fit(x, y, frac * top),
                      reference.fit(x, y, frac * top));
    }
    for (size_t cap : {1u, 3u, 6u, 12u}) {
        SCOPED_TRACE("support cap " + std::to_string(cap));
        expectSameFit(solver.fitWithTargetSupport(x, y, cap),
                      reference.fitWithTargetSupport(x, y, cap));
    }
}

TEST(Lasso, MatchesReferenceOnSparseProblem)
{
    Rng rng(11);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);
    expectMatchesReference(x, y);
}

TEST(Lasso, MatchesReferenceOnCorrelatedPairs)
{
    Rng rng(12);
    Matrix x;
    std::vector<double> y;
    correlatedPairs(x, y, rng);
    expectMatchesReference(x, y);
}

TEST(Lasso, MatchesReferenceWithMoreFeaturesThanRows)
{
    Rng rng(13);
    Matrix x;
    std::vector<double> y;
    widerThanTall(x, y, rng);
    expectMatchesReference(x, y);
}

TEST(Lasso, MatchesReferenceWithConstantColumns)
{
    Rng rng(14);
    Matrix x;
    std::vector<double> y;
    withConstantColumns(x, y, rng);
    expectMatchesReference(x, y);
    const LassoFit fit = LassoSolver().fit(x, y, 0.0);
    EXPECT_EQ(fit.coefficients[1], 0.0);
    EXPECT_EQ(fit.coefficients[4], 0.0);
}

} // namespace
} // namespace chaos
