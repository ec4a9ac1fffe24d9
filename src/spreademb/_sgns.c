/* One epoch of Skip-Gram negative-sampling updates, in pair order.
 *
 * u and v are distinct row-major (n_nodes, dim) matrices and work holds
 * n_rows + dim doubles.  Pair t updates node centers[t] against the n_rows
 * rows rows[t, :]: rows[t, 0] is the observed context (label 1), the rest
 * are noise nodes (label 0), possibly repeated.  All dots and the step of
 * u[i] are taken on the rows as they were before the pair's updates;
 * repeated noise rows receive one update each, in order, as np.add.at
 * applies them.  lrs[t] is the learning rate of pair t.
 *
 * Every check_every updates the updated u[i] is tested for finiteness.
 * Returns the in-epoch index of the first failing update, or -1.
 */
#include <math.h>
#include <stdint.h>

/* y += a * x; unrolled so that the compiler packs pairs of lanes */
static void axpy(double *restrict y, double a, const double *restrict x, int64_t n)
{
    int64_t c = 0;
    for (; c + 4 <= n; c += 4) {
        y[c] += a * x[c];
        y[c + 1] += a * x[c + 1];
        y[c + 2] += a * x[c + 2];
        y[c + 3] += a * x[c + 3];
    }
    for (; c < n; c++)
        y[c] += a * x[c];
}

/* four partial sums, so that the additions do not wait on each other */
static double dot(const double *restrict a, const double *restrict b, int64_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t c = 0;
    for (; c + 4 <= n; c += 4) {
        s0 += a[c] * b[c];
        s1 += a[c + 1] * b[c + 1];
        s2 += a[c + 2] * b[c + 2];
        s3 += a[c + 3] * b[c + 3];
    }
    for (; c < n; c++)
        s0 += a[c] * b[c];
    return (s0 + s1) + (s2 + s3);
}

int64_t sgns_epoch(double *u, double *v, int64_t dim,
                   const int64_t *centers, const int64_t *rows,
                   int64_t n_pairs, int64_t n_rows, const double *lrs,
                   int64_t check_every, double *work)
{
    double *g = work;            /* per row: lr * (label - sigmoid(dot)) */
    double *gu = work + n_rows;  /* the step of u[i] */
    for (int64_t t = 0; t < n_pairs; t++) {
        double *ui = u + centers[t] * dim;
        const int64_t *r = rows + t * n_rows;
        for (int64_t j = 0; j < n_rows; j++) {
            double sig = 1.0 / (1.0 + exp(-dot(v + r[j] * dim, ui, dim)));
            g[j] = ((j == 0 ? 1.0 : 0.0) - sig) * lrs[t];
        }
        for (int64_t c = 0; c < dim; c++)
            gu[c] = 0.0;
        for (int64_t j = 0; j < n_rows; j++)
            axpy(gu, g[j], v + r[j] * dim, dim);
        for (int64_t j = 0; j < n_rows; j++)
            axpy(v + r[j] * dim, g[j], ui, dim);
        axpy(ui, 1.0, gu, dim);
        if ((t + 1) % check_every == 0) {
            for (int64_t c = 0; c < dim; c++)
                if (!isfinite(ui[c]))
                    return t;
        }
    }
    return -1;
}
