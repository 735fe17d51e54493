/* The inner loop of secthresh.tau._box_lsq, compiled.
 *
 * It runs the floating-point operations of the numpy loop in tau, in the same
 * order, so it returns the same bits.  Each elementwise step is one IEEE
 * operation, which rounds alike here and in a numpy ufunc as long as the
 * compiler fuses none of them (build with -ffp-contract=off).  The products
 * go to the CBLAS routines numpy's matmul and dot call, passed in as function
 * pointers, with the arguments numpy gives them:
 *   M @ v    is gemv(ColMajor, Trans, cols, rows, 1, M, lda, v, 1, 0, out, 1);
 *   M.T @ r  is gemv(RowMajor, Trans, rows, cols, 1, M, lda, r, 1, 0, out, 1);
 *   dot(u, v) is ddot(len, u, 1, v, 1).
 * M is rows x cols with unit column stride and row stride lda.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

typedef void gemv_fn(int order, int trans, int64_t m, int64_t n, double alpha,
                     const double *a, int64_t lda, const double *x, int64_t incx,
                     double beta, double *y, int64_t incy);
typedef double dot_fn(int64_t n, const double *x, int64_t incx, const double *y,
                      int64_t incy);

static double clip(double v)
{
    return v < -1.0 ? -1.0 : (v > 1.0 ? 1.0 : v);
}

/* r = M v - c. */
static void residual(gemv_fn *gemv, int64_t rows, int64_t cols, const double *M,
                     int64_t lda, const double *c, const double *v, double *r)
{
    gemv(COL_MAJOR, TRANS, cols, rows, 1.0, M, lda, v, 1, 0.0, r, 1);
    for (int64_t i = 0; i < rows; i++)
        r[i] = r[i] - c[i];
}

/* Solves from x (the start, overwritten with the result) and returns the
 * iteration count.  work holds 4 * cols + rows doubles.  *status is 0 at the
 * iteration cap, 1 at the fixed point and 2 once ||M x - c||^2 <= stop_sq; a
 * negative stop_sq never stops. */
int64_t box_lsq(gemv_fn *gemv, dot_fn *dot, int64_t rows, int64_t cols,
                const double *M, int64_t lda, const double *c, double *x,
                double *work, int64_t max_iterations, int64_t check_every,
                double tol, double stop_sq, int *status)
{
    double *out = x, *xn = work, *y = xn + cols, *g = y + cols, *d = g + cols;
    double *r = d + cols, t = 1.0;
    int64_t it = 0;
    *status = 0;
    memcpy(y, x, cols * sizeof(double));
    for (int64_t i = 1; i <= max_iterations && *status == 0; i++) {
        it = i;
        residual(gemv, rows, cols, M, lda, c, y, r);
        gemv(ROW_MAJOR, TRANS, rows, cols, 1.0, M, lda, r, 1, 0.0, g, 1);
        for (int64_t j = 0; j < cols; j++) {
            xn[j] = clip(y[j] - g[j]);
            d[j] = xn[j] - x[j];
        }
        if (dot(cols, g, 1, d, 1) > 0.0) {
            t = 1.0;
            memcpy(y, xn, cols * sizeof(double));
        } else {
            double t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t));
            double beta = (t - 1.0) / t_next;
            for (int64_t j = 0; j < cols; j++)
                y[j] = xn[j] + beta * d[j];
            t = t_next;
        }
        double *swap = x;
        x = xn;
        xn = swap;
        if (i % check_every == 0 || i == max_iterations) {
            residual(gemv, rows, cols, M, lda, c, x, r);
            if (dot(rows, r, 1, r, 1) <= stop_sq) {
                *status = 2;
                break;
            }
            gemv(ROW_MAJOR, TRANS, rows, cols, 1.0, M, lda, r, 1, 0.0, g, 1);
            *status = 1;
            for (int64_t j = 0; j < cols; j++)
                if (!(fabs(clip(x[j] - g[j]) - x[j]) <= tol))
                    *status = 0;
        }
    }
    if (x != out)
        memcpy(out, x, cols * sizeof(double));
    return it;
}
