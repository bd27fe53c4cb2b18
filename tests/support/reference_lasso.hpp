/**
 * @file
 * Reference LASSO: residual-update cyclic coordinate descent, the
 * straightforward O(n)-per-coordinate form of the solver. Every
 * coordinate step correlates one standardized column with the full
 * residual and, when the coefficient moves, updates all n residuals.
 *
 * It is the oracle for chaos::LassoSolver, which runs the same cyclic
 * iterates and stopping rule through covariance updates: in exact
 * arithmetic both produce identical coefficients, supports and sweep
 * counts, so the tests compare them to rounding.
 */
#ifndef CHAOS_TESTS_SUPPORT_REFERENCE_LASSO_HPP
#define CHAOS_TESTS_SUPPORT_REFERENCE_LASSO_HPP

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/matrix.hpp"
#include "models/lasso.hpp"
#include "util/logging.hpp"

namespace chaos {
namespace testing_support {

/** Residual-update cyclic coordinate-descent LASSO (test oracle). */
class ReferenceLassoSolver
{
  public:
    explicit ReferenceLassoSolver(size_t maxSweeps = 1000, double tol = 1e-7)
        : maxSweeps(maxSweeps), tol(tol)
    {}

    LassoFit
    fit(const Matrix &x, const std::vector<double> &y, double lambda) const
    {
        panicIf(x.rows() != y.size(), "LassoSolver::fit shape mismatch");
        panicIf(lambda < 0.0, "LassoSolver::fit negative lambda");
        const size_t n = x.rows();
        const size_t p = x.cols();
        panicIf(n == 0 || p == 0, "LassoSolver::fit empty problem");

        std::vector<double> mu, sigma;
        columnMoments(x, mu, sigma);
        const Matrix z = standardize(x, mu, sigma);

        double y_mean = 0.0;
        for (double v : y)
            y_mean += v;
        y_mean /= static_cast<double>(n);

        // Residual starts as centered y; beta at zero.
        std::vector<double> beta(p, 0.0);
        std::vector<double> residual(n);
        for (size_t i = 0; i < n; ++i)
            residual[i] = y[i] - y_mean;

        // With standardized columns, each column's 1/n * z_c'z_c == 1,
        // so the coordinate update is a soft-threshold of the column-
        // residual correlation.
        LassoFit result;
        result.lambda = lambda;
        const double inv_n = 1.0 / static_cast<double>(n);

        for (size_t sweep = 0; sweep < maxSweeps; ++sweep) {
            double max_delta = 0.0;
            for (size_t c = 0; c < p; ++c) {
                if (sigma[c] <= 1e-12)
                    continue;  // Constant column stays at zero.
                double rho = 0.0;
                for (size_t i = 0; i < n; ++i)
                    rho += z(i, c) * residual[i];
                rho = rho * inv_n + beta[c];

                const double updated = softThreshold(rho, lambda);
                const double delta = updated - beta[c];
                if (delta != 0.0) {
                    for (size_t i = 0; i < n; ++i)
                        residual[i] -= delta * z(i, c);
                    beta[c] = updated;
                    max_delta = std::max(max_delta, std::fabs(delta));
                }
            }
            result.iterations = sweep + 1;
            if (max_delta < tol)
                break;
        }

        // Back-transform to the original scale.
        result.coefficients.assign(p, 0.0);
        double intercept = y_mean;
        for (size_t c = 0; c < p; ++c) {
            if (sigma[c] > 1e-12) {
                result.coefficients[c] = beta[c] / sigma[c];
                intercept -= result.coefficients[c] * mu[c];
            }
        }
        result.intercept = intercept;
        return result;
    }

    double
    lambdaMax(const Matrix &x, const std::vector<double> &y) const
    {
        const size_t n = x.rows();
        const size_t p = x.cols();
        panicIf(n == 0 || p == 0, "lambdaMax on empty problem");

        std::vector<double> mu, sigma;
        columnMoments(x, mu, sigma);

        double y_mean = 0.0;
        for (double v : y)
            y_mean += v;
        y_mean /= static_cast<double>(n);

        double best = 0.0;
        for (size_t c = 0; c < p; ++c) {
            if (sigma[c] <= 1e-12)
                continue;
            double rho = 0.0;
            for (size_t i = 0; i < n; ++i)
                rho += (x(i, c) - mu[c]) / sigma[c] * (y[i] - y_mean);
            best = std::max(best, std::fabs(rho) /
                                      static_cast<double>(n));
        }
        return best;
    }

    LassoFit
    fitWithTargetSupport(const Matrix &x, const std::vector<double> &y,
                         size_t maxSupport, size_t pathLength = 40,
                         double minRatio = 1e-3) const
    {
        panicIf(maxSupport == 0, "fitWithTargetSupport: zero support");
        const double top = lambdaMax(x, y);
        if (top <= 0.0)
            return fit(x, y, 0.0);

        const double log_top = std::log(top);
        const double log_bottom = std::log(top * minRatio);
        LassoFit last;
        bool have_fit = false;

        for (size_t k = 0; k < pathLength; ++k) {
            const double frac =
                pathLength > 1 ? static_cast<double>(k) /
                                     static_cast<double>(pathLength - 1)
                               : 0.0;
            const double lambda =
                std::exp(log_top + frac * (log_bottom - log_top));
            LassoFit current = fit(x, y, lambda);
            if (current.support().size() > maxSupport) {
                // Path went one step too dense: return the last fit
                // that respected the cap (or this one if none did).
                return have_fit ? last : current;
            }
            last = std::move(current);
            have_fit = true;
        }
        return last;
    }

  private:
    /** Column means and standard deviations of @p x. */
    static void
    columnMoments(const Matrix &x, std::vector<double> &mu,
                  std::vector<double> &sigma)
    {
        const size_t n = x.rows();
        const size_t p = x.cols();
        mu.assign(p, 0.0);
        sigma.assign(p, 0.0);
        for (size_t r = 0; r < n; ++r) {
            const double *row = x.rowPtr(r);
            for (size_t c = 0; c < p; ++c)
                mu[c] += row[c];
        }
        for (double &m : mu)
            m /= static_cast<double>(n);
        for (size_t r = 0; r < n; ++r) {
            const double *row = x.rowPtr(r);
            for (size_t c = 0; c < p; ++c) {
                const double d = row[c] - mu[c];
                sigma[c] += d * d;
            }
        }
        for (double &s : sigma)
            s = std::sqrt(s / static_cast<double>(n));
    }

    /** Standardized copy of @p x; constant columns become all-zero. */
    static Matrix
    standardize(const Matrix &x, const std::vector<double> &mu,
                const std::vector<double> &sigma)
    {
        Matrix z(x.rows(), x.cols());
        for (size_t r = 0; r < x.rows(); ++r) {
            const double *src = x.rowPtr(r);
            double *dst = z.rowPtr(r);
            for (size_t c = 0; c < x.cols(); ++c) {
                dst[c] = sigma[c] > 1e-12 ? (src[c] - mu[c]) / sigma[c]
                                          : 0.0;
            }
        }
        return z;
    }

    static double
    softThreshold(double value, double threshold)
    {
        if (value > threshold)
            return value - threshold;
        if (value < -threshold)
            return value + threshold;
        return 0.0;
    }

    size_t maxSweeps;
    double tol;
};

} // namespace testing_support
} // namespace chaos

#endif // CHAOS_TESTS_SUPPORT_REFERENCE_LASSO_HPP
