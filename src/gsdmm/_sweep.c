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
 * A document scores its slots one of two ways. Dense: every slot, reading
 * each word's count row at every slot. Sparse, when it has more slots than
 * the caller's crossover: per-word occupancy bitmaps (bit z of word w's row
 * is set exactly when its count in cluster z is non-zero) give the clusters
 * it shares a word with, which are scored reading only the cells whose bit
 * is set. Every other slot has a zero count for each of the document's
 * words, so its score depends on its (m, n) alone: one slot is scored per
 * distinct (m, n), and the representative empty cluster is the (0, 0) case.
 * Each cluster's score takes the same floating-point operations in the same
 * order on both paths, so the chain does not depend on the crossover. The
 * bitmaps live for one call: filled from the assignments on entry, kept by
 * every count change.
 *
 * Build: cc -O2 -shared -fPIC (never -ffast-math: the non-finite checks and
 * the exact draw rely on IEEE semantics).
 */

#include <float.h>
#include <math.h>
#include <stdint.h>

#define CHUNK 8

#ifdef __GNUC__
#define PREFETCH(p) __builtin_prefetch(p)
#define LOWEST(x) __builtin_ctzll(x)
#else
#define PREFETCH(p) ((void)(p))
static int64_t LOWEST(uint64_t x)
{
    int64_t i = 0;
    while (!(x >> i & 1))
        i++;
    return i;
}
#endif

/* return codes, mirrored in _native.py */
enum { DONE = 0, REFRESH = 1, NONFINITE = -1, ALL_ZERO = -2, DEGENERATE = -3 };

/* io array slots, mirrored in _native.py: the resume position in the order,
 * k_active, documents moved so far, whether the document at the resume
 * position is already detached, and its former cluster and pruned flag;
 * BAD receives the cluster whose score was non-finite */
enum { IO_POS, IO_K, IO_MOVED, IO_RESUME, IO_ZOLD, IO_PRUNED, IO_BAD, IO_LEN };

/* fields of one (m, n) memo cell */
enum { MEMO_M, MEMO_N, MEMO_STAMP, MEMO_ENTRY, MEMO_LEN };

typedef struct {
    int32_t *wz;      /* (V, kmax) word-major counts */
    int64_t v, kmax;
    int64_t *m, *n;   /* (kmax,) document and token counts */
    int64_t *assign;  /* (n_docs,) cluster per document, -1 when detached */
    int64_t n_docs;
    uint64_t *bits;   /* (V, nb) occupancy bitmaps, NULL when nb == 0 */
    int64_t nb;
} Model;

typedef struct {
    const double *h;  /* (V,) per-word pseudo-count */
    double ctot;      /* pseudo-count total over the vocabulary */
    double alpha;
} Weights;

/* Work space of one call, carved from the caller's arrays (sizes in
 * _native._work): kmax entries each unless noted. */
typedef struct {
    int64_t *slots;   /* scored slots: occupied clusters and one empty */
    int64_t *row_of;  /* active cluster -> its slot, empty -> the empty's */
    int64_t *list;    /* sparse: the clusters scored */
    int64_t *ent;     /* sparse: slot -> its entry in list */
    int64_t *memo;    /* MEMO_LEN * (mask + 1): (m, n) -> entry */
    uint64_t *seen;   /* nb words: the document's overlap set */
    int64_t mask, gen;
    double *num, *den, *score, *cum;
} Scratch;

static Scratch scratch(int64_t kmax, int64_t nb, double *work, int64_t *iwork)
{
    int64_t cells = 1;
    while (cells < 2 * kmax)
        cells <<= 1;
    Scratch x = {iwork, iwork + kmax, iwork + 2 * kmax, iwork + 3 * kmax,
                 iwork + 4 * kmax,
                 (uint64_t *)(iwork + 4 * kmax + MEMO_LEN * cells),
                 cells - 1, 0,
                 work, work + kmax, work + 2 * kmax, work + 3 * kmax};
    if (nb)  /* no cell is current until the first document's stamp */
        for (int64_t t = 0; t < cells; t++)
            x.memo[MEMO_LEN * t + MEMO_STAMP] = 0;
    return x;
}

static int bit(const uint64_t *row, int64_t z)
{
    return (int)(row[z >> 6] >> (z & 63) & 1);
}

/* Keep bit z of word w's bitmap equal to whether its count is non-zero. */
static void track(Model *s, int64_t w, int64_t z)
{
    if (!s->bits)
        return;
    uint64_t *word = s->bits + w * s->nb + (z >> 6);
    const uint64_t b = (uint64_t)1 << (z & 63);
    *word = s->wz[w * s->kmax + z] ? *word | b : *word & ~b;
}

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

/* The memo cell of (m, n) for the current document: its own, or the free
 * cell where it goes. The table has at least twice as many cells as there
 * are slots, so the probe ends. */
static int64_t *memo_cell(const Scratch *x, int64_t m, int64_t n)
{
    uint64_t h = (uint64_t)m * 0x9E3779B97F4A7C15u + (uint64_t)n;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9u;
    h ^= h >> 32;
    for (int64_t t = (int64_t)(h & (uint64_t)x->mask);;
         t = (t + 1) & x->mask) {
        int64_t *cell = x->memo + MEMO_LEN * t;
        if (cell[MEMO_STAMP] != x->gen
            || (cell[MEMO_M] == m && cell[MEMO_N] == n))
            return cell;
    }
}

/* The clusters to score for one document of nw distinct words: the slots
 * that share a word with it (occupied clusters, so each is its own slot),
 * then one slot per distinct (m, n) among the rest. Fills x->list and
 * x->ent, sets *overlap to the number of the first kind and returns the
 * number of both. The cells the scoring will read are prefetched here:
 * each is in its own cache line of a row too long to stay cached. */
static int64_t plan_sparse(const Model *s, Scratch *x, int64_t ns,
                           const int64_t *words, int64_t nw, int64_t *overlap)
{
    for (int64_t b = 0; b < s->nb; b++)
        x->seen[b] = 0;
    for (int64_t a = 0; a < nw; a++) {
        const uint64_t *row = s->bits + words[a] * s->nb;
        const int32_t *cells = s->wz + words[a] * s->kmax;
        for (int64_t b = 0; b < s->nb; b++) {
            x->seen[b] |= row[b];
            for (uint64_t r = row[b]; r; r &= r - 1)
                PREFETCH(cells + 64 * b + LOWEST(r));
        }
    }
    int64_t nc = 0;
    for (int64_t b = 0; b < s->nb; b++)
        for (uint64_t r = x->seen[b]; r; r &= r - 1) {
            const int64_t z = 64 * b + LOWEST(r);
            x->ent[x->row_of[z]] = nc;
            x->list[nc++] = z;
        }
    *overlap = nc;
    x->gen++;
    for (int64_t j = 0; j < ns; j++) {
        const int64_t z = x->slots[j];
        if (bit(x->seen, z))
            continue;
        int64_t *cell = memo_cell(x, s->m[z], s->n[z]);
        if (cell[MEMO_STAMP] != x->gen) {
            cell[MEMO_M] = s->m[z];
            cell[MEMO_N] = s->n[z];
            cell[MEMO_STAMP] = x->gen;
            cell[MEMO_ENTRY] = nc;
            x->list[nc++] = z;
        }
        x->ent[j] = cell[MEMO_ENTRY];
    }
    return nc;
}

/* Sum of the per-factor logs of len tokens starting at occurrence c of
 * distinct word a (token index i), against cluster z: the reference form.
 * It reads cells directly on both paths; a clear bit means a zero cell. */
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
 * of the ns clusters in slots, written to out; num and den are work space.
 * The first nr read their counts, from the word's row (sparse: only where
 * its bit is set, 0 elsewhere); the rest have count 0 for every word. The
 * loop is token-outer so each token reads one contiguous row of wz. */
static void score_doc(const Model *s, const Weights *wt, const int64_t *slots,
                      int64_t ns, int64_t nr, int sparse,
                      const int64_t *words, const int32_t *counts, int64_t nw,
                      double *num, double *den, double *out)
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
        const uint64_t *occupied = sparse ? s->bits + words[a] * s->nb : 0;
        const double cw = wt->h[words[a]];
        for (int64_t c = 0; c < counts[a]; c++, i++) {
            const double add = cw + (double)c, tot = wt->ctot + (double)i;
            suspect |= !(add > 0.0) || !(tot > 0.0);
            if (occupied) {
                for (int64_t j = 0; j < nr; j++) {
                    const int64_t z = slots[j];
                    num[j] *= (double)(bit(occupied, z) ? row[z] : 0) + add;
                    den[j] *= (double)s->n[z] + tot;
                }
            } else {
                for (int64_t j = 0; j < nr; j++) {
                    num[j] *= (double)row[slots[j]] + add;
                    den[j] *= (double)s->n[slots[j]] + tot;
                }
            }
            const double absent = (double)0 + add;
            for (int64_t j = nr; j < ns; j++) {
                num[j] *= absent;
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

/* Score the document against the ns slots into x->score: every slot
 * (dense; *ent set to NULL), or x->list's clusters, with *ent = x->ent
 * mapping each slot to its score (sparse: more than crossover slots, and
 * bitmaps kept). Returns the number of scores. */
static int64_t score_slots(const Model *s, const Weights *wt, Scratch *x,
                           int64_t ns, int64_t crossover,
                           const int64_t *words, const int32_t *counts,
                           int64_t nw, const int64_t **ent)
{
    if (!s->bits || ns <= crossover) {
        *ent = 0;
        score_doc(s, wt, x->slots, ns, ns, 0, words, counts, nw, x->num,
                  x->den, x->score);
        return ns;
    }
    *ent = x->ent;
    int64_t overlap;
    const int64_t nc = plan_sparse(s, x, ns, words, nw, &overlap);
    score_doc(s, wt, x->list, nc, overlap, 1, words, counts, nw, x->num,
              x->den, x->score);
    return nc;
}

/* First scored slot, in index order, whose score is non-finite other than
 * the -inf of an empty cluster (alpha == 0), or -1. ent maps slots to
 * scores (NULL: one score per slot). */
static int64_t bad_slot(const Model *s, const int64_t *slots, int64_t ns,
                        const double *scores, const int64_t *ent)
{
    for (int64_t j = 0; j < ns; j++) {
        const double v = scores[ent ? ent[j] : j];
        if (!isfinite(v) && !(v == -INFINITY && s->m[slots[j]] == 0))
            return slots[j];
    }
    return -1;
}

/* Draw a cluster from nc scores, mapped to the ns slots by ent (NULL: one
 * score per slot) and spread over k clusters by row_of; each distinct
 * score is exponentiated once. p, q and cum are work space. Returns the
 * cluster or a negative code. */
static int64_t draw(const double *scores, int64_t nc, const int64_t *ent,
                    int64_t ns, const int64_t *row_of, int64_t k, double u,
                    double *p, double *q, double *cum)
{
    double top = -INFINITY;
    for (int64_t j = 0; j < nc; j++)
        if (scores[j] > top)
            top = scores[j];
    if (top == -INFINITY)
        return ALL_ZERO;
    for (int64_t j = 0; j < nc; j++)
        p[j] = exp(scores[j] - top);
    if (ent) {
        for (int64_t j = 0; j < ns; j++)
            q[j] = p[ent[j]];
        p = q;
    }
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
    for (int64_t a = 0; a < nw; a++) {
        s->wz[words[a] * s->kmax + z] += (int32_t)sign * counts[a];
        track(s, words[a], z);
    }
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
                    track(s, words[a], z);
                    track(s, words[a], last);
                }
            }
        }
    }
    s->m[last] = 0;
    s->n[last] = 0;
    *k = last;
}

/* Score one detached document against every active cluster, k of them,
 * into out (k,), taking the sparse path past crossover slots when bits is
 * given (nb > 0; zeroed, V rows, of which the document's words' are filled
 * here). Work space as for dmm_sweep. Returns DONE, or NONFINITE with the
 * cluster in *bad. */
int64_t dmm_scores(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                   int64_t *n, int64_t k, const int64_t *words,
                   const int32_t *counts, int64_t nw, const double *h,
                   double ctot, double alpha, uint64_t *bits, int64_t nb,
                   int64_t crossover, double *work, int64_t *iwork,
                   double *out, int64_t *bad)
{
    Model s = {wz, v, kmax, m, n, 0, 0, nb ? bits : 0, nb};
    const Weights wt = {h, ctot, alpha};
    Scratch x = scratch(kmax, nb, work, iwork);
    if (s.bits)
        for (int64_t a = 0; a < nw; a++)
            for (int64_t z = 0; z < k; z++)
                track(&s, words[a], z);
    const int64_t ns = build_slots(&s, k, x.slots, x.row_of);
    const int64_t *ent;
    score_slots(&s, &wt, &x, ns, crossover, words, counts, nw, &ent);
    for (int64_t z = 0; z < k; z++)
        out[z] = x.score[ent ? ent[x.row_of[z]] : x.row_of[z]];
    *bad = bad_slot(&s, x.slots, ns, x.score, ent);
    return *bad < 0 ? DONE : NONFINITE;
}

/* Run the document steps order[io[IO_POS]:n_order], document order[i]
 * drawing with uniform u[i]. A document with a cluster is detached first;
 * one with assignment -1 only joins. With refresh_step > 0 the call returns
 * REFRESH after detaching (and pruning for) each position that is a multiple
 * of refresh_step, so the caller can recompute h and call again to resume.
 * bits (nb > 0) are zeroed by the caller and filled on the first entry;
 * later entries resume after a REFRESH and keep them. work and iwork are
 * sized by _native._work. Returns DONE, REFRESH or a negative code; io
 * always holds the position and counts reached. */
int64_t dmm_sweep(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                  int64_t *n, int64_t *assign, int64_t n_docs,
                  const int64_t *word_ptr, const int64_t *words,
                  const int32_t *counts, const int64_t *order,
                  const double *u, int64_t n_order, const double *h,
                  double ctot, double alpha, int64_t prune,
                  int64_t refresh_step, uint64_t *bits, int64_t nb,
                  int64_t crossover, double *work, int64_t *iwork,
                  int64_t *io)
{
    Model s = {wz, v, kmax, m, n, assign, n_docs, nb ? bits : 0, nb};
    const Weights wt = {h, ctot, alpha};
    Scratch x = scratch(kmax, nb, work, iwork);
    int64_t k = io[IO_K], moved = io[IO_MOVED], pos = io[IO_POS];
    int64_t ns = build_slots(&s, k, x.slots, x.row_of);
    int64_t code = DONE;

    if (s.bits && !io[IO_RESUME])
        for (int64_t d = 0; d < n_docs; d++) {
            if (assign[d] < 0)
                continue;
            for (int64_t a = word_ptr[d]; a < word_ptr[d + 1]; a++)
                track(&s, words[a], assign[d]);
        }

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
                    ns = build_slots(&s, k, x.slots, x.row_of);
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
        const int64_t *ent;
        const int64_t nc = score_slots(&s, &wt, &x, ns, crossover, w, c, nw,
                                       &ent);
        io[IO_BAD] = bad_slot(&s, x.slots, ns, x.score, ent);
        if (io[IO_BAD] >= 0) {
            code = NONFINITE;
            break;
        }
        const int64_t z_new = draw(x.score, nc, ent, ns, x.row_of, k, u[pos],
                                   x.num, x.den, x.cum);
        if (z_new < 0) {
            code = z_new;
            break;
        }
        const int filled = !m[z_new] && !n[z_new];
        move_doc(&s, z_new, w, c, nw, total, 1);
        assign[d] = z_new;
        if (filled)
            ns = build_slots(&s, k, x.slots, x.row_of);
        if (pruned || z_new != z_old)
            moved++;
    }
    io[IO_POS] = pos;
    io[IO_K] = k;
    io[IO_MOVED] = moved;
    return code;
}
