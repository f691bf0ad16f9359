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
 * is set. Every other cluster has a zero count for each of the document's
 * words, so its score depends on its (m, n) alone. The kernel keeps the
 * active clusters' classes of equal (m, n), with their member lists, and
 * moves a cluster between classes at every count change; a document scores
 * one member of each class that has a member sharing no word with it (the
 * empty clusters form the (0, 0) class). A class whose members all share a
 * word with the document is not scored: no cluster would read that score,
 * and with every score a distinct cluster's there are at most k. The draw
 * cumulates over the clusters in index order, each reading its own score
 * (dense, or sparse sharing a word) or its class's. Each cluster's score
 * takes the same floating-point operations in the same order on both paths,
 * so the chain does not depend on the crossover.
 *
 * log(m + alpha) is read from a table of the same expression for every m up
 * to the number of documents. It and the bitmaps live across the refresh
 * re-entries of one sweep: filled on the first entry, the bitmaps then kept
 * by every count change. Everything else is rebuilt on every entry.
 *
 * One more entry point lists the occupied count cells for gsdmm+'s entropy
 * refresh: it walks the corpus transposed to word-major order (built once per
 * corpus), so finding the cells costs O(entries), not a sort of them or a
 * scan of the count matrix. The entropy arithmetic stays with the caller.
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

/* The active clusters' classes of equal (m, n), built on each entry when
 * the bitmaps are kept. cls[z] is cluster z's class. A class lists its
 * members from head through next and prev (-1 ends a list), and holds its
 * (m, n) and the current document's entry for it. ids[0, live) are the
 * classes in use and ids[live, kmax) the free ones, pos their inverse;
 * cells maps (m, n) to its class by linear probing, -1 marking a free
 * cell, with at least twice as many cells as classes. */
typedef struct {
    int64_t *cls, *next, *prev;                       /* kmax clusters */
    int64_t *head, *key_m, *key_n, *ent, *ids, *pos;  /* kmax classes */
    int64_t *cells, mask, live;
} Classes;

typedef struct {
    int32_t *wz;      /* (V, kmax) word-major counts */
    int64_t v, kmax;
    int64_t *m, *n;   /* (kmax,) document and token counts */
    int64_t *assign;  /* (n_docs,) cluster per document, -1 when detached */
    int64_t n_docs;
    uint64_t *bits;   /* (V, nb) occupancy bitmaps, NULL when nb == 0 */
    int64_t nb;
    Classes cl;       /* kept when bits are */
} Model;

typedef struct {
    const double *h;  /* (V,) per-word pseudo-count */
    double ctot;      /* pseudo-count total over the vocabulary */
    double alpha;
    const double *logm;  /* (nlog,) log(m + alpha) for m < nlog */
    int64_t nlog;
} Weights;

/* Work space of one call, carved from the caller's arrays by carve. */
typedef struct {
    int64_t *slots;   /* scored slots: occupied clusters and one empty */
    int64_t *row_of;  /* active cluster -> its slot, empty -> the empty's */
    int64_t *list;    /* sparse: the clusters scored */
    int64_t *ent;     /* sparse: active cluster -> its entry in list */
    uint64_t *seen;   /* nb words: the document's overlap set */
    double *num, *den, *score, *cum;
    /* the document's nc scored clusters, and each active cluster's entry
     * among them: slots and row_of (dense) or list and ent (sparse) */
    const int64_t *scored, *entry;
    int64_t nc;
} Scratch;

/* Carve the work space (sizes in _native._work): float num, den, score and
 * cum, kmax each; int slots, row_of, list and ent, the classes' nine
 * arrays, kmax each, then the classes' cells and the overlap set. */
static Scratch carve(Model *s, double *work, int64_t *iwork)
{
    const int64_t kmax = s->kmax;
    int64_t cells = 1;
    while (cells < 2 * kmax)
        cells <<= 1;
    int64_t *c = iwork + 4 * kmax;
    s->cl = (Classes){.cls = c, .next = c + kmax, .prev = c + 2 * kmax,
                      .head = c + 3 * kmax, .key_m = c + 4 * kmax,
                      .key_n = c + 5 * kmax, .ent = c + 6 * kmax,
                      .ids = c + 7 * kmax, .pos = c + 8 * kmax,
                      .cells = c + 9 * kmax, .mask = cells - 1};
    return (Scratch){.slots = iwork, .row_of = iwork + kmax,
                     .list = iwork + 2 * kmax, .ent = iwork + 3 * kmax,
                     .seen = (uint64_t *)(c + 9 * kmax + cells),
                     .num = work, .den = work + kmax,
                     .score = work + 2 * kmax, .cum = work + 3 * kmax};
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

/* The home cell of (m, n). */
static int64_t home(const Classes *c, int64_t m, int64_t n)
{
    uint64_t h = (uint64_t)m * 0x9E3779B97F4A7C15u + (uint64_t)n;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9u;
    h ^= h >> 32;
    return (int64_t)(h & (uint64_t)c->mask);
}

/* The cell of (m, n): its class's, or the free cell where it goes. */
static int64_t *cell_of(const Classes *c, int64_t m, int64_t n)
{
    for (int64_t t = home(c, m, n);; t = (t + 1) & c->mask) {
        const int64_t id = c->cells[t];
        if (id < 0 || (c->key_m[id] == m && c->key_n[id] == n))
            return c->cells + t;
    }
}

/* Add cluster z to the class of (m, n), opening it if it has no members. */
static void join(Classes *c, int64_t z, int64_t m, int64_t n)
{
    int64_t *cell = cell_of(c, m, n);
    if (*cell < 0) {
        *cell = c->ids[c->live++];
        c->key_m[*cell] = m;
        c->key_n[*cell] = n;
        c->head[*cell] = -1;
    }
    const int64_t id = *cell;
    c->cls[z] = id;
    c->prev[z] = -1;
    c->next[z] = c->head[id];
    if (c->head[id] >= 0)
        c->prev[c->head[id]] = z;
    c->head[id] = z;
}

/* Take cluster z out of its class. A class left without members is freed,
 * and its cell is emptied by shifting back the later cells of its probe run
 * that may move (linear probing's deletion: no cell is marked deleted). */
static void leave(Classes *c, int64_t z)
{
    const int64_t id = c->cls[z];
    if (c->prev[z] >= 0)
        c->next[c->prev[z]] = c->next[z];
    else
        c->head[id] = c->next[z];
    if (c->next[z] >= 0)
        c->prev[c->next[z]] = c->prev[z];
    if (c->head[id] >= 0)
        return;
    const int64_t last = c->ids[--c->live];
    c->ids[c->pos[id]] = last;
    c->pos[last] = c->pos[id];
    c->ids[c->live] = id;
    c->pos[id] = c->live;
    int64_t i = cell_of(c, c->key_m[id], c->key_n[id]) - c->cells;
    for (int64_t j = (i + 1) & c->mask; c->cells[j] >= 0;
         j = (j + 1) & c->mask) {
        const int64_t other = c->cells[j];
        const int64_t from = home(c, c->key_m[other], c->key_n[other]);
        if (((j - from) & c->mask) >= ((j - i) & c->mask)) {
            c->cells[i] = other;
            i = j;
        }
    }
    c->cells[i] = -1;
}

/* The classes of the k active clusters, from their counts. */
static void build_classes(Model *s, int64_t k)
{
    Classes *c = &s->cl;
    for (int64_t t = 0; t <= c->mask; t++)
        c->cells[t] = -1;
    for (int64_t i = 0; i < s->kmax; i++)
        c->ids[i] = c->pos[i] = i;
    c->live = 0;
    for (int64_t z = 0; z < k; z++)
        join(c, z, s->m[z], s->n[z]);
}

/* Keep cluster z's class that of its (m, n), after they changed. */
static void reclass(Model *s, int64_t z)
{
    if (!s->bits)
        return;
    leave(&s->cl, z);
    join(&s->cl, z, s->m[z], s->n[z]);
}

/* log(m + alpha) for m < len, the expression log_m falls back to. */
static void fill_logs(double *logm, int64_t len, double alpha)
{
    for (int64_t m = 0; m < len; m++)
        logm[m] = log((double)m + alpha);
}

/* log(m + alpha): from the table, or computed for an m past it (a state
 * whose counts disagree with its assignments). */
static double log_m(const Weights *wt, int64_t m)
{
    return (uint64_t)m < (uint64_t)wt->nlog ? wt->logm[m]
                                             : log((double)m + wt->alpha);
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

/* The clusters to score for one document of nw distinct words: those that
 * share a word with it, then one member of each class that has a member
 * sharing none. Fills x->list and the classes' entries (-1 for a class
 * whose members all share a word), sets *overlap to the number of the
 * first kind and returns the number of both, at most k (all distinct).
 * The cells the scoring will read are prefetched here: each is in its own
 * cache line of a row too long to stay cached. */
static int64_t plan_sparse(Model *s, Scratch *x, const int64_t *words,
                           int64_t nw, int64_t *overlap)
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
        for (uint64_t r = x->seen[b]; r; r &= r - 1)
            x->list[nc++] = 64 * b + LOWEST(r);
    *overlap = nc;
    Classes *c = &s->cl;
    for (int64_t i = 0; i < c->live; i++) {
        const int64_t id = c->ids[i];
        int64_t z = c->head[id];
        while (z >= 0 && bit(x->seen, z))
            z = c->next[z];
        c->ent[id] = z < 0 ? -1 : nc;
        if (z >= 0)
            x->list[nc++] = z;
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
        out[j] = log_m(wt, s->m[slots[j]]);
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

/* Score the document into x->score: every slot (dense), or, past crossover
 * slots with the bitmaps kept, the clusters plan_sparse lists (sparse).
 * Sets x->scored, x->nc and x->entry for the k active clusters; sparse, a
 * cluster reads its class's entry unless it shares a word with the
 * document (a class whose members all do has none), then its own. */
static void score_slots(Model *s, const Weights *wt, Scratch *x, int64_t ns,
                        int64_t k, int64_t crossover, const int64_t *words,
                        const int32_t *counts, int64_t nw)
{
    if (!s->bits || ns <= crossover) {
        x->scored = x->slots;
        x->entry = x->row_of;
        x->nc = ns;
        score_doc(s, wt, x->slots, ns, ns, 0, words, counts, nw, x->num,
                  x->den, x->score);
        return;
    }
    int64_t overlap;
    x->scored = x->list;
    x->entry = x->ent;
    x->nc = plan_sparse(s, x, words, nw, &overlap);
    score_doc(s, wt, x->list, x->nc, overlap, 1, words, counts, nw, x->num,
              x->den, x->score);
    for (int64_t z = 0; z < k; z++)
        x->ent[z] = s->cl.ent[s->cl.cls[z]];
    for (int64_t j = 0; j < overlap; j++)
        x->ent[x->list[j]] = j;
}

/* Whether a score of a cluster with m documents is non-finite other than
 * the -inf of an empty cluster (alpha == 0). */
static int bad_score(double score, int64_t m)
{
    return !isfinite(score) && !(score == -INFINITY && m == 0);
}

/* First active cluster, in index order, whose score is bad, or -1. The
 * clusters are scanned only when one of the scores is. */
static int64_t bad_cluster(const Model *s, const Scratch *x, int64_t k)
{
    int64_t j = 0;
    while (j < x->nc && !bad_score(x->score[j], s->m[x->scored[j]]))
        j++;
    if (j == x->nc)
        return -1;
    for (int64_t z = 0; z < k; z++)
        if (bad_score(x->score[x->entry[z]], s->m[z]))
            return z;
    return -1;
}

/* Draw one of the k active clusters from the scores, each cluster reading
 * its entry; each entry is exponentiated once, into x->num. Returns the
 * cluster or a negative code. */
static int64_t draw(Scratch *x, int64_t k, double u)
{
    const double *scores = x->score;
    double *p = x->num, *cum = x->cum;
    double top = -INFINITY;
    for (int64_t j = 0; j < x->nc; j++)
        if (scores[j] > top)
            top = scores[j];
    if (top == -INFINITY)
        return ALL_ZERO;
    for (int64_t j = 0; j < x->nc; j++)
        p[j] = exp(scores[j] - top);
    double acc = 0.0;
    for (int64_t z = 0; z < k; z++) {
        acc += p[x->entry[z]];
        cum[z] = acc;
    }
    if (!isfinite(acc) || !(acc > 0.0))
        return DEGENERATE;
    const double target = u * acc;
    int64_t lo = 0, hi = k;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (cum[mid] <= target)
            lo = mid + 1;
        else
            hi = mid;
    }
    int64_t z = lo < k - 1 ? lo : k - 1;
    while (p[x->entry[z]] == 0.0)
        z--;
    return z;
}

static void move_doc(Model *s, int64_t z, const int64_t *words,
                     const int32_t *counts, int64_t nw, int64_t total,
                     int64_t sign)
{
    s->m[z] += sign;
    s->n[z] += sign * total;
    reclass(s, z);
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
        reclass(s, z);
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
    if (s->bits)
        leave(&s->cl, last);
    s->m[last] = 0;
    s->n[last] = 0;
    *k = last;
}

/* Score one detached document against every active cluster, k of them,
 * into out (k,), taking the sparse path past crossover slots when bits is
 * given (nb > 0; zeroed, V rows, of which the document's words' are filled
 * here). logm (nlog,) is filled here. Work space as for dmm_sweep. Returns
 * DONE, or NONFINITE with the cluster in *bad. */
int64_t dmm_scores(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                   int64_t *n, int64_t k, const int64_t *words,
                   const int32_t *counts, int64_t nw, const double *h,
                   double ctot, double alpha, double *logm, int64_t nlog,
                   uint64_t *bits, int64_t nb, int64_t crossover,
                   double *work, int64_t *iwork, double *out, int64_t *bad)
{
    Model s = {.wz = wz, .v = v, .kmax = kmax, .m = m, .n = n,
               .bits = nb ? bits : 0, .nb = nb};
    const Weights wt = {h, ctot, alpha, logm, nlog};
    Scratch x = carve(&s, work, iwork);
    fill_logs(logm, nlog, alpha);
    if (s.bits) {
        for (int64_t a = 0; a < nw; a++)
            for (int64_t z = 0; z < k; z++)
                track(&s, words[a], z);
        build_classes(&s, k);
    }
    const int64_t ns = build_slots(&s, k, x.slots, x.row_of);
    score_slots(&s, &wt, &x, ns, k, crossover, words, counts, nw);
    for (int64_t z = 0; z < k; z++)
        out[z] = x.score[x.entry[z]];
    *bad = bad_cluster(&s, &x, k);
    return *bad < 0 ? DONE : NONFINITE;
}

/* Run the document steps order[io[IO_POS]:n_order], document order[i]
 * drawing with uniform u[i]. A document with a cluster is detached first;
 * one with assignment -1 only joins. With refresh_step > 0 the call returns
 * REFRESH after detaching (and pruning for) each position that is a multiple
 * of refresh_step, so the caller can recompute h and call again to resume.
 * logm (nlog,) and bits (nb > 0, zeroed by the caller) are filled on the
 * first entry; later entries resume after a REFRESH and keep them. work and
 * iwork are sized by _native._work and hold nothing from one entry to the
 * next. Returns DONE, REFRESH or a negative code; io always holds the
 * position and counts reached. */
int64_t dmm_sweep(int32_t *wz, int64_t v, int64_t kmax, int64_t *m,
                  int64_t *n, int64_t *assign, int64_t n_docs,
                  const int64_t *word_ptr, const int64_t *words,
                  const int32_t *counts, const int64_t *order,
                  const double *u, int64_t n_order, const double *h,
                  double ctot, double alpha, double *logm, int64_t nlog,
                  int64_t prune, int64_t refresh_step, uint64_t *bits,
                  int64_t nb, int64_t crossover, double *work, int64_t *iwork,
                  int64_t *io)
{
    Model s = {.wz = wz, .v = v, .kmax = kmax, .m = m, .n = n,
               .assign = assign, .n_docs = n_docs, .bits = nb ? bits : 0,
               .nb = nb};
    const Weights wt = {h, ctot, alpha, logm, nlog};
    Scratch x = carve(&s, work, iwork);
    int64_t k = io[IO_K], moved = io[IO_MOVED], pos = io[IO_POS];
    int64_t ns = build_slots(&s, k, x.slots, x.row_of);
    int64_t code = DONE;

    if (!io[IO_RESUME]) {
        fill_logs(logm, nlog, alpha);
        if (s.bits)
            for (int64_t d = 0; d < n_docs; d++) {
                if (assign[d] < 0)
                    continue;
                for (int64_t a = word_ptr[d]; a < word_ptr[d + 1]; a++)
                    track(&s, words[a], assign[d]);
            }
    }
    if (s.bits)
        build_classes(&s, k);

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
        score_slots(&s, &wt, &x, ns, k, crossover, w, c, nw);
        io[IO_BAD] = bad_cluster(&s, &x, k);
        if (io[IO_BAD] >= 0) {
            code = NONFINITE;
            break;
        }
        const int64_t z_new = draw(&x, k, u[pos]);
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

/* The occupied cells (w, z) of the attached documents, for each word w <
 * n_words in turn and, within a word, for each cluster z ascending, written
 * to out_w (w) and out_nz (the count wz[w][z]). Word w's entries are
 * documents col_doc[col_ptr[w]:col_ptr[w + 1]] with their counts col_count
 * at the same positions; an entry of a detached document (assignment -1) or
 * of count 0 occupies no cell, and a cell two entries share is listed once.
 * seen is zeroed work space with a bit for every cluster an assignment
 * names; a call that succeeds leaves it zeroed. Returns the number of cells
 * (at most n_entries), or -1 when the index points outside its entries or
 * the documents. */
int64_t dmm_cells(const int32_t *wz, int64_t kmax, const int64_t *assign,
                  int64_t n_docs, const int64_t *col_ptr, int64_t n_words,
                  const int64_t *col_doc, const int32_t *col_count,
                  int64_t n_entries, uint64_t *seen, int64_t *out_w,
                  int32_t *out_nz)
{
    int64_t nc = 0;
    for (int64_t w = 0; w < n_words; w++) {
        const int64_t lo = col_ptr[w], hi = col_ptr[w + 1];
        if (lo < 0 || hi < lo || hi > n_entries)
            return -1;
        int64_t first = INT64_MAX, last = -1;  /* seen's words in use */
        for (int64_t e = lo; e < hi; e++) {
            const int64_t d = col_doc[e];
            if (d < 0 || d >= n_docs)
                return -1;
            const int64_t z = assign[d];
            if (z < 0 || !col_count[e])
                continue;
            seen[z >> 6] |= (uint64_t)1 << (z & 63);
            first = (z >> 6) < first ? z >> 6 : first;
            last = (z >> 6) > last ? z >> 6 : last;
        }
        for (int64_t b = first; b <= last; b++) {
            for (uint64_t r = seen[b]; r; r &= r - 1) {
                out_w[nc] = w;
                out_nz[nc++] = (int32_t)(64 * b + LOWEST(r));  /* z, for now */
            }
            seen[b] = 0;
        }
    }
    /* The counts, in a pass of their own: its reads, scattered over wz, do
     * not wait on each other, where in the loop above every mispredicted
     * loop exit would throw away the ones in flight. */
    for (int64_t c = 0; c < nc; c++)
        out_nz[c] = wz[out_w[c] * kmax + out_nz[c]];
    return nc;
}
