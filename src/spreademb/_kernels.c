/* The compiled kernels of spreademb, loaded through ctypes by kernels.py.
 *
 * sgns_epoch runs one epoch of Skip-Gram updates.  The si_* functions run SI
 * spreading and sample root-to-leaf trajectory paths.  Those draw their
 * random numbers from the caller's numpy Generator through its bitgen_t, in
 * the order of the numpy code they replace and by numpy's own algorithms, so
 * that a seed gives the same trees, paths and final generator state:
 * next_double for each element of rng.random(), and draw_below for
 * rng.integers(k).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include <numpy/random/bitgen.h>

/* ---- Skip-Gram ---------------------------------------------------------- */

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

/* ---- random numbers ----------------------------------------------------- */

static double next_double(bitgen_t *bg)
{
    return bg->next_double(bg->state);
}

/* rng.integers(k) for k >= 1, as numpy's random_bounded_uint64_fill draws
 * it: Lemire's multiply-and-reject (arXiv:1805.10941) on next_uint32 when
 * k - 1 fits 32 bits, on next_uint64 otherwise; k = 1 draws nothing. */
static int64_t draw_below(bitgen_t *bg, int64_t k)
{
    uint64_t rng = (uint64_t)k - 1;
    if (rng == 0)
        return 0;
    if (rng < 0xFFFFFFFFULL) {
        uint32_t excl = (uint32_t)rng + 1;
        uint64_t m = (uint64_t)bg->next_uint32(bg->state) * excl;
        if ((uint32_t)m < excl) {
            uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
            while ((uint32_t)m < threshold)
                m = (uint64_t)bg->next_uint32(bg->state) * excl;
        }
        return (int64_t)(m >> 32);
    }
    if (rng == 0xFFFFFFFFULL)
        return (int64_t)bg->next_uint32(bg->state);
    uint64_t excl = rng + 1;
    __uint128_t m = (__uint128_t)bg->next_uint64(bg->state) * excl;
    if ((uint64_t)m < excl) {
        uint64_t threshold = (UINT64_MAX - rng) % excl;
        while ((uint64_t)m < threshold)
            m = (__uint128_t)bg->next_uint64(bg->state) * excl;
    }
    return (int64_t)(m >> 64);
}

/* ---- SI spreading --------------------------------------------------------- */

/* An infection tree in infection order: order[k] is the k-th infected node,
 * up[k] the position in order of its infector (-1 for the root, order[0])
 * and time[k] the step or timestamp of its infection. */
struct tree {
    int64_t *order, *up, *time;
    int64_t size;
};

/* Scratch of one call, for n nodes and n_contacts contacts.  pos[v] is v's
 * position in the tree or -1; count[] is zero and both are restored after
 * each spread. */
struct work {
    int64_t *pos, *count, *aux, *list, *rev, *succ;
    struct tree t;
    int64_t *block;
};

static int work_alloc(struct work *w, int64_t n, int64_t n_contacts)
{
    w->block = malloc((size_t)(8 * n + n_contacts + 1) * sizeof(int64_t));
    if (w->block == NULL)
        return -1;
    int64_t *p = w->block;
    w->pos = p;
    w->count = p + n;
    w->aux = p + 2 * n;
    w->list = p + 3 * n;
    w->rev = p + 4 * n;
    w->t.order = p + 5 * n;
    w->t.up = p + 6 * n;
    w->t.time = p + 7 * n;
    w->succ = p + 8 * n;
    for (int64_t v = 0; v < n; v++) {
        w->pos[v] = -1;
        w->count[v] = 0;
    }
    return 0;
}

static void infect(struct tree *t, int64_t *pos, int64_t v, int64_t up, int64_t time)
{
    t->order[t->size] = v;
    t->up[t->size] = up;
    t->time[t->size] = time;
    pos[v] = t->size++;
}

/* Synchronous SI from seed on the CSR graph (indptr, nbrs), at most
 * max_steps steps.  p_hit[k] is the chance that a susceptible node with k
 * infected neighbours is infected in one step.  As in the numpy version:
 * the boundary (w->list, with count[v] infected neighbours each) keeps its
 * first-insertion order; each step draws one double per boundary node in
 * that order, then for each newly infected node, in the same order, a
 * parent uniform over its neighbours infected before the step, in CSR
 * order; the boundary grows only after every new node is marked. */
static void spread_static(bitgen_t *bg, const int64_t *indptr, const int64_t *nbrs,
                          const double *p_hit, int64_t seed, int64_t max_steps,
                          struct work *w)
{
    struct tree *t = &w->t;
    int64_t *pos = w->pos, *count = w->count, *bnd = w->list;
    int64_t n_bnd = 0;
    t->size = 0;
    infect(t, pos, seed, -1, 0);
    for (int64_t e = indptr[seed]; e < indptr[seed + 1]; e++) {
        count[nbrs[e]] = 1;
        bnd[n_bnd++] = nbrs[e];
    }
    for (int64_t step = 1; n_bnd > 0 && step <= max_steps; step++) {
        int64_t first = t->size, n_new = 0;
        for (int64_t b = 0; b < n_bnd; b++)
            if (next_double(bg) < p_hit[count[bnd[b]]])
                t->order[first + n_new++] = bnd[b];
        for (int64_t k = first; k < first + n_new; k++) {
            int64_t v = t->order[k], r = draw_below(bg, count[v]), e = indptr[v];
            for (;; e++)
                if (pos[nbrs[e]] >= 0 && r-- == 0)
                    break;
            t->up[k] = pos[nbrs[e]];
            t->time[k] = step;
        }
        for (int64_t k = first; k < first + n_new; k++) {
            pos[t->order[k]] = k;
            count[t->order[k]] = 0;
        }
        t->size += n_new;
        int64_t kept = 0;
        for (int64_t b = 0; b < n_bnd; b++)
            if (pos[bnd[b]] < 0)
                bnd[kept++] = bnd[b];
        n_bnd = kept;
        for (int64_t k = first; k < t->size; k++) {
            int64_t v = t->order[k];
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                int64_t x = nbrs[e];
                if (pos[x] < 0 && count[x]++ == 0)
                    bnd[n_bnd++] = x;
            }
        }
    }
    for (int64_t b = 0; b < n_bnd; b++)
        count[bnd[b]] = 0;
}

/* SI along the time-sorted contacts (times, src, dst) from seed, infected at
 * t_start.  Each batch of contacts sharing a timestamp runs against the
 * pre-batch infected set: one double per contact between an infected and a
 * susceptible node, in contact order; then, for each node infected in the
 * batch in the order of its first successful contact, a parent uniform over
 * its successful contacts.  w->succ holds the batch's successful contacts,
 * count[v] their number per node and then the rank of the chosen one. */
static void spread_temporal(bitgen_t *bg, const int64_t *times, const int64_t *src,
                            const int64_t *dst, int64_t n_contacts, int64_t seed,
                            int64_t t_start, double beta, struct work *w)
{
    struct tree *t = &w->t;
    int64_t *pos = w->pos, *count = w->count, *succ = w->succ;
    int64_t lo = 0, hi = n_contacts;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (times[mid] < t_start)
            lo = mid + 1;
        else
            hi = mid;
    }
    t->size = 0;
    infect(t, pos, seed, -1, t_start);
    for (int64_t i = lo, j; i < n_contacts; i = j) {
        int64_t first = t->size, n_new = 0, n_succ = 0;
        for (j = i; j < n_contacts && times[j] == times[i]; j++) {
            int64_t a_in = pos[src[j]] >= 0;
            if (a_in == (pos[dst[j]] >= 0) || !(next_double(bg) < beta))
                continue;
            int64_t v = a_in ? dst[j] : src[j];
            if (count[v]++ == 0)
                t->order[first + n_new++] = v;
            succ[n_succ++] = j;
        }
        for (int64_t k = first; k < first + n_new; k++) {
            int64_t v = t->order[k];
            count[v] = draw_below(bg, count[v]);
            w->aux[v] = k;
        }
        for (int64_t s = 0; s < n_succ; s++) {
            int64_t a = src[succ[s]], b = dst[succ[s]];
            int64_t v = pos[a] >= 0 ? b : a;
            if (count[v]-- == 0) {
                t->up[w->aux[v]] = pos[v == a ? b : a];
                t->time[w->aux[v]] = times[i];
            }
        }
        for (int64_t k = first; k < first + n_new; k++) {
            pos[t->order[k]] = k;
            count[t->order[k]] = 0;
        }
        t->size += n_new;
    }
}

static void forget_tree(struct work *w)
{
    for (int64_t k = 0; k < w->t.size; k++)
        w->pos[w->t.order[k]] = -1;
}

/* ---- trajectory paths --------------------------------------------------- */

/* Appends n_paths root-to-leaf paths of t to tokens, each cut to its first
 * max_len nodes, with the leaf uniform over the tree's leaves (nodes that
 * infected nobody, in infection order; the root of a one-node tree) and
 * drawn with replacement.  Stops early once *total reaches budget.  Path p
 * occupies tokens[offsets[p], offsets[p + 1]).  leaves, rev: t.size each. */
static void emit_paths(bitgen_t *bg, const struct tree *t, int64_t n_paths, int64_t max_len,
                       int64_t budget, int64_t *leaves, int64_t *rev,
                       int64_t *tokens, int64_t *offsets, int64_t *n_out, int64_t *total)
{
    for (int64_t k = 0; k < t->size; k++)
        leaves[k] = 1;
    for (int64_t k = 1; k < t->size; k++)
        leaves[t->up[k]] = 0;
    int64_t n_leaves = 0;
    for (int64_t k = 0; k < t->size; k++)
        if (leaves[k])
            leaves[n_leaves++] = k;
    for (int64_t p = 0; p < n_paths && *total < budget; p++) {
        int64_t depth = 0;
        for (int64_t k = leaves[draw_below(bg, n_leaves)]; k >= 0; k = t->up[k])
            rev[depth++] = k;
        int64_t len = depth < max_len ? depth : max_len;
        for (int64_t i = 0; i < len; i++)
            tokens[*total + i] = t->order[rev[depth - 1 - i]];
        *total += len;
        offsets[++*n_out] = *total;
    }
}

/* ---- entry points ------------------------------------------------------- */

/* One tree of si_spread_static into (order, up, time); returns its size, or
 * -1 if scratch memory could not be allocated. */
int64_t si_tree_static(bitgen_t *bg, int64_t n, const int64_t *indptr, const int64_t *nbrs,
                       const double *p_hit, int64_t seed, int64_t max_steps,
                       int64_t *order, int64_t *up, int64_t *time)
{
    struct work w;
    if (work_alloc(&w, n, 0) < 0)
        return -1;
    w.t.order = order;
    w.t.up = up;
    w.t.time = time;
    spread_static(bg, indptr, nbrs, p_hit, seed, max_steps, &w);
    free(w.block);
    return w.t.size;
}

/* One tree of si_spread_temporal into (order, up, time); returns its size,
 * or -1 if scratch memory could not be allocated. */
int64_t si_tree_temporal(bitgen_t *bg, int64_t n, const int64_t *times, const int64_t *src,
                         const int64_t *dst, int64_t n_contacts, int64_t seed,
                         int64_t t_start, double beta, int64_t *order, int64_t *up,
                         int64_t *time)
{
    struct work w;
    if (work_alloc(&w, n, n_contacts) < 0)
        return -1;
    w.t.order = order;
    w.t.up = up;
    w.t.time = time;
    spread_temporal(bg, times, src, dst, n_contacts, seed, t_start, beta, &w);
    free(w.block);
    return w.t.size;
}

/* n_paths paths of the tree (order, up) of size nodes, as extract_paths;
 * returns 0, or -1 if scratch memory could not be allocated. */
int64_t si_tree_paths(bitgen_t *bg, const int64_t *order, const int64_t *up, int64_t size,
                      int64_t n_paths, int64_t max_len, int64_t *tokens, int64_t *offsets)
{
    int64_t *scratch = malloc((size_t)(2 * size) * sizeof(int64_t));
    if (scratch == NULL)
        return -1;
    struct tree t = {(int64_t *)order, (int64_t *)up, NULL, size};
    int64_t n_out = 0, total = 0;
    offsets[0] = 0;
    emit_paths(bg, &t, n_paths, max_len, INT64_MAX, scratch, scratch + size,
               tokens, offsets, &n_out, &total);
    free(scratch);
    return 0;
}

/* How a temporal corpus picks a seed's start time among its contact times
 * (ctimes[bounds[s]], ..., ctimes[bounds[s + 1] - 1], ascending). */
enum { START_FIRST = 0, START_UNIFORM = 1, START_UNIFORM_DISTINCT = 2 };

/* A whole SI corpus, as sample_corpus: until the token count reaches
 * budget, draw a uniform seed, spread from it (temporal when times is not
 * NULL) and append quota[seed] paths of its tree, stopping at the path that
 * reaches the budget.  A temporal seed without contacts gives a one-node
 * tree and draws no start time.  tokens holds budget + max_len - 1 entries
 * and offsets budget + 1.  Returns the number of paths, or -1 if scratch
 * memory could not be allocated. */
static int64_t corpus(bitgen_t *bg, int64_t n, const int64_t *indptr, const int64_t *nbrs,
                      const double *p_hit, int64_t max_steps,
                      const int64_t *times, const int64_t *src, const int64_t *dst,
                      int64_t n_contacts, const int64_t *bounds,
                      const int64_t *ctimes, int64_t start, double beta,
                      const int64_t *quota, int64_t budget, int64_t max_len,
                      int64_t *tokens, int64_t *offsets)
{
    struct work w;
    if (work_alloc(&w, n, n_contacts) < 0)
        return -1;
    int64_t n_out = 0, total = 0;
    offsets[0] = 0;
    while (total < budget) {
        int64_t seed = draw_below(bg, n);
        if (times == NULL) {
            spread_static(bg, indptr, nbrs, p_hit, seed, max_steps, &w);
        } else if (bounds[seed] == bounds[seed + 1]) {
            w.t.size = 0;
            infect(&w.t, w.pos, seed, -1, 0);
        } else {
            const int64_t *ct = ctimes + bounds[seed];
            int64_t n_times = bounds[seed + 1] - bounds[seed], t0 = ct[0];
            if (start == START_UNIFORM) {
                t0 = ct[draw_below(bg, n_times)];
            } else if (start == START_UNIFORM_DISTINCT) {
                int64_t n_distinct = 1;
                for (int64_t k = 1; k < n_times; k++)
                    n_distinct += ct[k] != ct[k - 1];
                int64_t r = draw_below(bg, n_distinct);
                for (int64_t k = 1; r > 0; k++)
                    if (ct[k] != ct[k - 1] && --r == 0)
                        t0 = ct[k];
            }
            spread_temporal(bg, times, src, dst, n_contacts, seed, t0, beta, &w);
        }
        emit_paths(bg, &w.t, quota[seed], max_len, budget, w.aux, w.rev,
                   tokens, offsets, &n_out, &total);
        forget_tree(&w);
    }
    free(w.block);
    return n_out;
}

int64_t si_corpus_static(bitgen_t *bg, int64_t n, const int64_t *indptr, const int64_t *nbrs,
                         const double *p_hit, int64_t max_steps, const int64_t *quota,
                         int64_t budget, int64_t max_len, int64_t *tokens, int64_t *offsets)
{
    return corpus(bg, n, indptr, nbrs, p_hit, max_steps, NULL, NULL, NULL, 0, NULL, NULL,
                  0, 0.0, quota, budget, max_len, tokens, offsets);
}

int64_t si_corpus_temporal(bitgen_t *bg, int64_t n, const int64_t *times, const int64_t *src,
                           const int64_t *dst, int64_t n_contacts, const int64_t *bounds,
                           const int64_t *ctimes, int64_t start, double beta,
                           const int64_t *quota, int64_t budget, int64_t max_len,
                           int64_t *tokens, int64_t *offsets)
{
    return corpus(bg, n, NULL, NULL, NULL, 0, times, src, dst, n_contacts, bounds,
                  ctimes, start, beta, quota, budget, max_len, tokens, offsets);
}
