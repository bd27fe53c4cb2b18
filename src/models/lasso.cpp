#include "models/lasso.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace chaos {

std::vector<size_t>
LassoFit::support(double tol) const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < coefficients.size(); ++i) {
        if (std::fabs(coefficients[i]) > tol)
            out.push_back(i);
    }
    return out;
}

namespace {

/**
 * One problem, standardized once for a whole lambda path. With Z the
 * standardized design (constant columns all-zero), it holds the Gram
 * matrix G = Z'Z/n and the target correlations c = Z'(y - ybar)/n:
 * all a coordinate-descent fit needs at any lambda, in O(p^2) numbers.
 */
struct Standardized
{
    std::vector<double> mu, sigma;
    double yMean = 0.0;
    std::vector<double> gram;   ///< G, p x p row-major.
    std::vector<double> corr;   ///< c, one per column.
};

/** Column means and standard deviations of @p x. */
void
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

Standardized
standardize(const Matrix &x, const std::vector<double> &y)
{
    panicIf(x.rows() != y.size(), "LassoSolver::fit shape mismatch");
    const size_t n = x.rows();
    const size_t p = x.cols();
    panicIf(n == 0 || p == 0, "LassoSolver::fit empty problem");

    Standardized s;
    columnMoments(x, s.mu, s.sigma);
    for (double v : y)
        s.yMean += v;
    s.yMean /= static_cast<double>(n);

    // Accumulate the upper triangle of G and c row by row, then scale
    // by 1/n and mirror.
    s.gram.assign(p * p, 0.0);
    s.corr.assign(p, 0.0);
    std::vector<double> z(p);
    for (size_t r = 0; r < n; ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < p; ++c) {
            z[c] = s.sigma[c] > 1e-12 ? (row[c] - s.mu[c]) / s.sigma[c]
                                      : 0.0;
        }
        const double yc = y[r] - s.yMean;
        for (size_t i = 0; i < p; ++i) {
            s.corr[i] += z[i] * yc;
            double *g = &s.gram[i * p];
            for (size_t j = i; j < p; ++j)
                g[j] += z[i] * z[j];
        }
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < p; ++i) {
        s.corr[i] *= inv_n;
        for (size_t j = i; j < p; ++j) {
            s.gram[i * p + j] *= inv_n;
            s.gram[j * p + i] = s.gram[i * p + j];
        }
    }
    return s;
}

inline double
softThreshold(double value, double threshold)
{
    if (value > threshold)
        return value - threshold;
    if (value < -threshold)
        return value + threshold;
    return 0.0;
}

/**
 * Cold-started cyclic coordinate descent by covariance updates. It
 * keeps g = c - G beta, each column's correlation with the current
 * residual, so reading a coordinate costs O(1) and moving one costs
 * O(p) (g -= delta * G[:, c]) instead of O(n) each.
 */
LassoFit
solve(const Standardized &s, double lambda, size_t maxSweeps, double tol)
{
    const size_t p = s.corr.size();
    std::vector<double> beta(p, 0.0);
    std::vector<double> g = s.corr;

    LassoFit result;
    result.lambda = lambda;
    for (size_t sweep = 0; sweep < maxSweeps; ++sweep) {
        double max_delta = 0.0;
        for (size_t c = 0; c < p; ++c) {
            if (s.sigma[c] <= 1e-12)
                continue;  // Constant column stays at zero.
            // Standardized columns have G[c][c] == 1, so the update
            // is a soft-threshold of the column-residual correlation.
            const double updated = softThreshold(g[c] + beta[c], lambda);
            const double delta = updated - beta[c];
            if (delta != 0.0) {
                const double *column = &s.gram[c * p];
                for (size_t j = 0; j < p; ++j)
                    g[j] -= delta * column[j];
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
    double intercept = s.yMean;
    for (size_t c = 0; c < p; ++c) {
        if (s.sigma[c] > 1e-12) {
            result.coefficients[c] = beta[c] / s.sigma[c];
            intercept -= result.coefficients[c] * s.mu[c];
        }
    }
    result.intercept = intercept;
    return result;
}

/** max |c|: the smallest lambda at which every coefficient is zero. */
double
largestCorrelation(const Standardized &s)
{
    double best = 0.0;
    for (double c : s.corr)
        best = std::max(best, std::fabs(c));
    return best;
}

} // namespace

LassoFit
LassoSolver::fit(const Matrix &x, const std::vector<double> &y,
                 double lambda) const
{
    panicIf(lambda < 0.0, "LassoSolver::fit negative lambda");
    return solve(standardize(x, y), lambda, maxSweeps, tol);
}

double
LassoSolver::lambdaMax(const Matrix &x, const std::vector<double> &y) const
{
    return largestCorrelation(standardize(x, y));
}

LassoFit
LassoSolver::fitWithTargetSupport(const Matrix &x,
                                  const std::vector<double> &y,
                                  size_t maxSupport, size_t pathLength,
                                  double minRatio) const
{
    panicIf(maxSupport == 0, "fitWithTargetSupport: zero support");
    const Standardized s = standardize(x, y);
    const double top = largestCorrelation(s);
    if (top <= 0.0)
        return solve(s, 0.0, maxSweeps, tol);

    const double log_top = std::log(top);
    const double log_bottom = std::log(top * minRatio);
    LassoFit last;
    bool have_fit = false;

    for (size_t k = 0; k < pathLength; ++k) {
        const double frac = pathLength > 1
                                ? static_cast<double>(k) /
                                      static_cast<double>(pathLength - 1)
                                : 0.0;
        const double lambda =
            std::exp(log_top + frac * (log_bottom - log_top));
        LassoFit current = solve(s, lambda, maxSweeps, tol);
        if (current.support().size() > maxSupport) {
            // Path went one step too dense: return the last fit that
            // respected the cap (or this one if none did).
            return have_fit ? last : current;
        }
        last = std::move(current);
        have_fit = true;
    }
    return last;
}

} // namespace chaos
