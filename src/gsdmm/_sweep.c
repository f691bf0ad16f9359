/* Compiled collapsed Gibbs sweep for the Dirichlet multinomial mixture.
 *
 * One call runs a whole run of document steps over the word-major (V, k_max)
 * int32 count matrix and the corpus-wide compressed-row token arrays. Each
 * step detaches the document, prunes its cluster if that emptied it and
 * pruning is on (the last active cluster moves into the freed slot: a scan
 * of the assignments relabels its documents and moves their cells), scores
 * the occupied clusters plus the lowest empty one, draws from the
 * conditional and re-attaches. The draw follows the numpy reference exactly:
 * cumulate over all k_active clusters in index order, every empty cluster
 * carrying the representative's mass, then take the first cumulated value
 * above u * total (numpy searchsorted, side right), clamp to the last
 * cluster and back off from zero-width entries.
 *
 * The word-match term is a product of factors (count + c_w + j) over
 * (n + C + i). Factors are multiplied CHUNK tokens at a time and each chunk
 * costs one log, so long documents cannot underflow; a chunk whose products
 * are not normal numbers, or whose offsets are not positive (a product of
 * negative factors could look valid), is redone with one log per factor,
 * the reference form, so it fails exactly where that form does.
 *
 * Build: cc -O2 -shared -fPIC (never -ffast-math: the non-finite checks and
 * the exact draw rely on IEEE semantics).
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#define CHUNK 8

/* return codes, mirrored in _native.py */
enum { DONE = 0, REFRESH = 1, NONFINITE = -1, ALL_ZERO = -2, DEGENERATE = -3 };

/* io array slots, mirrored in _native.py: the resume position in the order,
 * k_active, documents moved so far, whether the document at the resume
 * position is already detached, and its former cluster and pruned flag;
 * BAD receives the cluster whose score was non-finite */
enum { IO_POS, IO_K, IO_MOVED, IO_RESUME, IO_ZOLD, IO_PRUNED, IO_BAD, IO_LEN };

typedef struct {
    int32_t *wz;      /* (V, kmax) word-major counts */
    int64_t v, kmax;
    int64_t *m, *n;   /* (kmax,) document and token counts */
    int64_t *assign;  /* (n_docs,) cluster per document, -1 when detached */
    int64_t n_docs;
} Model;

typedef struct {
    const double *h;  /* (V,) per-word pseudo-count */
    double ctot;      /* pseudo-count total over the vocabulary */
    double alpha;
} Weights;

/* Occupied clusters (m > 0 or n > 0) plus the lowest empty one, in index
 * order; row_of maps every active cluster to its row, empty clusters to
 * the representative's. Returns the number of scored rows. */
static int64_t build_slots(const Model *s, int64_t k, int64_t *slots,
                           int64_t *row_of)
{
    int64_t ns = 0, rep = -1;
    for (int64_t z = 0; z < k; z++) {
        if (s->m[z] || s->n[z] || rep < 0) {
            if (!(s->m[z] || s->n[z]))
                rep = ns;
            row_of[z] = ns;
            slots[ns++] = z;
        } else {
            row_of[z] = rep;
        }
    }
    return ns;
}

/* Sum of the per-factor logs of len tokens starting at occurrence c of
 * distinct word a (token index i), against cluster z: the reference form. */
static double factor_logs(const Model *s, const Weights *wt, int64_t z,
                          const int64_t *words, const int32_t *counts,
                          int64_t a, int64_t c, int64_t i, int64_t len)
{
    double num = 0.0, den = 0.0;
    while (len > 0) {
        if (c >= counts[a]) {
            a++;
            c = 0;
            continue;
        }
        const int64_t w = words[a];
        num += log((double)s->wz[w * s->kmax + z] + (wt->h[w] + (double)c));
        den += log((double)s->n[z] + (wt->ctot + (double)i));
        c++;
        i++;
        len--;
    }
    return num - den;
}

/* Add one chunk of len factors, starting at occurrence c0 of distinct word
 * a0 (token index i0), to each slot's score and reset the products. */
static void flush(const Model *s, const Weights *wt, const int64_t *slots,
                  int64_t ns, const int64_t *words, const int32_t *counts,
                  int64_t a0, int64_t c0, int64_t i0, int64_t len,
                  int suspect, double *num, double *den, double *out)
{
    for (int64_t j = 0; j < ns; j++) {
        const double p = num[j], q = den[j], r = p / q;
        if (!suspect && p >= DBL_MIN && p <= DBL_MAX && q >= DBL_MIN
            && q <= DBL_MAX && r >= DBL_MIN && r <= DBL_MAX)
            out[j] += log(r);
        else
            out[j] += factor_logs(s, wt, slots[j], words, counts, a0, c0, i0,
                                  len);
        num[j] = den[j] = 1.0;
    }
}

/* Unnormalized log conditional of one document (already detached) for each
 * of the ns scored slots, written to out; num and den are work space. The
 * loop is token-outer so each token reads one contiguous row of wz. */
static void score_doc(const Model *s, const Weights *wt, const int64_t *slots,
                      int64_t ns, const int64_t *words, const int32_t *counts,
                      int64_t nw, double *num, double *den, double *out)
{
    for (int64_t j = 0; j < ns; j++) {
        out[j] = log((double)s->m[slots[j]] + wt->alpha);
        num[j] = den[j] = 1.0;
    }
    /* start of the current chunk: distinct word, occurrence, token index */
    int64_t a0 = 0, c0 = 0, i0 = 0, len = 0, i = 0;
    int suspect = 0;
    for (int64_t a = 0; a < nw; a++) {
        const int32_t *row = s->wz + words[a] * s->kmax;
        const double cw = wt->h[words[a]];
        for (int64_t c = 0; c < counts[a]; c++, i++) {
            const double add = cw + (double)c, tot = wt->ctot + (double)i;
            suspect |= !(add > 0.0) || !(tot > 0.0);
            for (int64_t j = 0; j < ns; j++) {
                num[j] *= (double)row[slots[j]] + add;
                den[j] *= (double)s->n[slots[j]] + tot;
            }
            if (++len == CHUNK) {
                flush(s, wt, slots, ns, words, counts, a0, c0, i0, len,
                      suspect, num, den, out);
                a0 = a;
                c0 = c + 1;
                i0 = i + 1;
                len = 0;
                suspect = 0;
            }
        }
    }
    if (len)
        flush(s, wt, slots, ns, words, counts, a0, c0, i0, len, suspect, num,
              den, out);
}

/* First scored slot whose score is non-finite other than the -inf of an
 * empty cluster (alpha == 0), or -1. */
static int64_t bad_slot(const Model *s, const int64_t *slots, int64_t ns,
                        const double *scores)
{
    for (int64_t j = 0; j < ns; j++)
        if (!isfinite(scores[j])
            && !(scores[j] == -INFINITY && s->m[slots[j]] == 0))
            return slots[j];
    return -1;
}

/* Draw a cluster from the scores of the slots, spread over k clusters by
 * row_of. p and cum are work space. Returns the cluster or a negative code. */
static int64_t draw(const double *scores, int64_t ns, const int64_t *row_of,
                    int64_t k, double u, double *p, double *cum)
{
    double top = -INFINITY;
    for (int64_t j = 0; j < ns; j++)
        if (scores[j] > top)
            top = scores[j];
    if (top == -INFINITY)
        return ALL_ZERO;
    for (int64_t j = 0; j < ns; j++)
        p[j] = exp(scores[j] - top);
    double acc = 0.0;
    for (int64_t z = 0; z < k; z++) {
        acc += p[row_of[z]];
        cum[z] = acc;
    }
    if (!isfinite(acc) || !(acc > 0.0))
        return DEGENERATE;
    const double x = u * acc;
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (cum[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    int64_t z = lo < k - 1 ? lo : k - 1;
    while (p[row_of[z]] == 0.0)
        z--;
    return z;
}

static void move_doc(Model *s, int64_t z, const int64_t *words,
                     const int32_t *counts, int64_t nw, int64_t total,
                     int64_t sign)
{
    s->m[z] += sign;
    s->n[z] += sign * total;
    for (int64_t a = 0; a < nw; a++)
        s->wz[words[a] * s->kmax + z] += (int32_t)sign * counts[a];
}

/* Remove emptied cluster z, moving the last active cluster into its slot.
 * Column z is all zero (its token total n[z] is 0), and the nonzero cells
 * of column last are exactly the words of the documents assigned to last,
 * so one scan of the assignments relabels those documents and moves their
 * cells: O(D + tokens of last), not O(V). A word two of them share is moved
 * once; the second finds its cell in last already zero. */
static void deactivate(Model *s, int64_t z, int64_t *k, const int64_t *word_ptr,
                       const int64_t *words)
{
    const int64_t last = *k - 1;
    if (z != last) {
        s->m[z] = s->m[last];
        s->n[z] = s->n[last];
        for (int64_t d = 0; d < s->n_docs; d++) {
            if (s->assign[d] != last)
                continue;
            s->assign[d] = z;
            for (int64_t a = word_ptr[d]; a < word_ptr[d + 1]; a++) {
                int32_t *row = s->wz + words[a] * s->kmax;
                if (row[last]) {
                    row[z] = row[last];
                    row[last] = 0;
                }
            }
        }
    }
    s->m[last] = 0;
    s->n[last] = 0;
    *k = last;
}

/* Score one detached document against every active cluster, k of them,
 * into out (k,). work holds 3 * kmax doubles, iwork 2 * kmax. Returns DONE,
 * or NONFINITE with the cluster in *bad. */
int64_t dmm_scores(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                   int64_t *n, int64_t k, const int64_t *words,
                   const int32_t *counts, int64_t nw, const double *h,
                   double ctot, double alpha, double *work, int64_t *iwork,
                   double *out, int64_t *bad)
{
    const Model s = {wz, v, kmax, m, n, 0, 0};
    const Weights wt = {h, ctot, alpha};
    int64_t *slots = iwork, *row_of = iwork + kmax;
    double *num = work, *den = work + kmax, *scores = work + 2 * kmax;
    const int64_t ns = build_slots(&s, k, slots, row_of);
    score_doc(&s, &wt, slots, ns, words, counts, nw, num, den, scores);
    for (int64_t z = 0; z < k; z++)
        out[z] = scores[row_of[z]];
    *bad = bad_slot(&s, slots, ns, scores);
    return *bad < 0 ? DONE : NONFINITE;
}

/* Run the document steps order[io[IO_POS]:n_order], document order[i]
 * drawing with uniform u[i]. A document with a cluster is detached first;
 * one with assignment -1 only joins. With refresh_step > 0 the call returns
 * REFRESH after detaching (and pruning for) each position that is a multiple
 * of refresh_step, so the caller can recompute h and call again to resume.
 * work holds 4 * kmax doubles, iwork 2 * kmax. Returns DONE, REFRESH or a
 * negative code; io always holds the position and counts reached. */
int64_t dmm_sweep(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                  int64_t *n, int64_t *assign, int64_t n_docs,
                  const int64_t *word_ptr, const int64_t *words,
                  const int32_t *counts, const int64_t *order,
                  const double *u, int64_t n_order, const double *h,
                  double ctot, double alpha, int64_t prune,
                  int64_t refresh_step, double *work, int64_t *iwork,
                  int64_t *io)
{
    Model s = {wz, v, kmax, m, n, assign, n_docs};
    const Weights wt = {h, ctot, alpha};
    int64_t *slots = iwork, *row_of = iwork + kmax;
    double *num = work, *den = work + kmax, *scores = work + 2 * kmax;
    double *cum = work + 3 * kmax;
    int64_t k = io[IO_K], moved = io[IO_MOVED], pos = io[IO_POS];
    int64_t ns = build_slots(&s, k, slots, row_of);
    int64_t code = DONE;

    for (; pos < n_order; pos++) {
        const int64_t d = order[pos];
        const int64_t *w = words + word_ptr[d];
        const int32_t *c = counts + word_ptr[d];
        const int64_t nw = word_ptr[d + 1] - word_ptr[d];
        int64_t total = 0, z_old, pruned = 0;
        for (int64_t a = 0; a < nw; a++)
            total += c[a];
        if (io[IO_RESUME]) {
            io[IO_RESUME] = 0;
            z_old = io[IO_ZOLD];
            pruned = io[IO_PRUNED];
        } else {
            z_old = assign[d];
            if (z_old >= 0) {
                move_doc(&s, z_old, w, c, nw, total, -1);
                assign[d] = -1;
                if (!m[z_old] && !n[z_old]) {
                    if (prune) {
                        deactivate(&s, z_old, &k, word_ptr, words);
                        pruned = 1;
                    }
                    ns = build_slots(&s, k, slots, row_of);
                }
            }
            if (refresh_step > 0 && pos % refresh_step == 0) {
                io[IO_RESUME] = 1;
                io[IO_ZOLD] = z_old;
                io[IO_PRUNED] = pruned;
                code = REFRESH;
                break;
            }
        }
        score_doc(&s, &wt, slots, ns, w, c, nw, num, den, scores);
        io[IO_BAD] = bad_slot(&s, slots, ns, scores);
        if (io[IO_BAD] >= 0) {
            code = NONFINITE;
            break;
        }
        const int64_t z_new = draw(scores, ns, row_of, k, u[pos], num, cum);
        if (z_new < 0) {
            code = z_new;
            break;
        }
        const int filled = !m[z_new] && !n[z_new];
        move_doc(&s, z_new, w, c, nw, total, 1);
        assign[d] = z_new;
        if (filled)
            ns = build_slots(&s, k, slots, row_of);
        if (pruned || z_new != z_old)
            moved++;
    }
    io[IO_POS] = pos;
    io[IO_K] = k;
    io[IO_MOVED] = moved;
    return code;
}
