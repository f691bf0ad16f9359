/* Compiled collapsed Gibbs sweep for the Dirichlet multinomial mixture.
 *
 * One call runs a whole run of document steps over the per-word count tables
 * and the corpus-wide compressed-row token arrays. Each step detaches the
 * document, prunes its cluster if that emptied it and pruning is on (the
 * last active cluster moves into the freed slot: a scan of the assignments
 * relabels its documents and moves their cells), scores the active clusters,
 * draws from the conditional and re-attaches. A detached document's counts
 * stay in its cluster's cells until the draw, and the scores read that
 * cluster's counts less the document's, so a document that draws its own
 * cluster again changes no cell; they leave at once when the document
 * empties its cluster or a refresh reads the tables. The draw follows the
 * numpy reference exactly: cumulate over all k_active clusters in index
 * order, every empty cluster carrying the representative's mass, then take
 * the first cumulated value above u * total (numpy searchsorted, side
 * right), clamp to the last cluster and back off from zero-width entries.
 *
 * The counts are stored per word, as model.ModelState lays them out: word
 * w's nonzero counts are (cluster, count) cells of an open-addressing table,
 * slots ptr[w]:ptr[w + 1] of cell, each a cluster z (-1 for a free slot)
 * and its count n (0 in a free slot). The capacity is a power of two at
 * least twice the clusters the word can occupy, so a probe run always ends,
 * or at least kmax, so every cluster has a slot of its own. A cell sits in
 * the probe run from its home slot, cluster & (capacity - 1) (linear
 * probing); one whose count reaches 0 leaves by backward-shift deletion. A
 * prune moves each cell of the last cluster to the freed one: the cell
 * leaves its table and comes back under its new cluster, whose home
 * differs. The tables take O(corpus entries + V) space, not V x k_max.
 *
 * The word-match term is a product of factors (count + c_w + j) over
 * (n + C + i). Factors are multiplied CHUNK tokens at a time and each chunk
 * costs one log, so long documents cannot underflow; a chunk whose products
 * are not normal numbers, or whose offsets are not positive (a product of
 * negative factors could look valid), is redone with one log per factor,
 * the reference form, so it fails exactly where that form does. A word's
 * table is scattered into its counts in the planned clusters once, before
 * the product loop over its tokens.
 *
 * A document is scored in one of two modes, set by how many of the active
 * clusters are occupied (m > 0 or n > 0): sparse exactly while more than
 * the caller's crossover (_native._CROSSOVER) are. The count is taken on
 * entry and kept as clusters empty and fill, the events that already
 * rebuild the dense plan, so a call changes mode as it goes: most clusters
 * of a large k_max empty within the first sweeps. Dense: the occupied
 * clusters plus the lowest empty one, whose score every empty cluster
 * reads. Sparse: the tables of the document's words give the clusters it
 * shares a word with, which are scored reading their counts. Every other
 * cluster has a zero count for each of the document's words, so its score
 * depends on its (m, n) alone. In sparse mode the kernel keeps the active
 * clusters' classes of equal (m, n), with their member lists, built on
 * entering the mode, and moves a cluster between classes at every count
 * change; a document scores one member of each class that has a member
 * sharing no word with it (the empty clusters form the (0, 0) class). A
 * class whose members all share a word with the document is not scored: no
 * cluster would read that score, and with every score a distinct cluster's
 * there are at most k. The draw cumulates over the clusters in index order,
 * each reading its own score or the one it shares. Each cluster's score
 * takes the same floating-point operations in the same order in both
 * modes, so the chain does not depend on the mode.
 *
 * A model state is bound once: dmm_bind lays out one caller-owned buffer
 * with its Model, the work space and a table of log(m + alpha) for every m
 * up to the number of documents, which a sweep fills on its first entry and
 * keeps across its refresh re-entries. The work space carries nothing from
 * one call to the next, and calls on one binding must not overlap.
 *
 * The entry points, each taking the binding: dmm_sweep runs document steps
 * and dmm_scores scores one document. dmm_cells lists the occupied count
 * cells for gsdmm+'s entropy refresh, word-major with clusters ascending,
 * in one pass over the tables; the entropy arithmetic stays with the
 * caller. dmm_add adds counts to cells (ModelState.add_counts) and
 * dmm_counts reads them (ModelState.counts_of).
 *
 * The byte scans serve ingestion and the archive reader, with no Python
 * object per token or per pair: dmm_count_runs and dmm_runs find and number
 * the runs of a..z bytes of the texts build_corpus joins; dmm_count_bytes
 * sizes the archive scans' outputs, dmm_pairs parses documents.txt,
 * dmm_vocabulary checks vocabulary.tsv and parses its document frequencies,
 * and dmm_assignments parses the cluster ids of a run's assignments.csv.
 * Every output is sized by the caller from a count (of runs, of colons, of
 * line feeds), never from the byte length. dmm_lines writes the other way:
 * documents.txt and the rows of assignments.csv, from the lines' joined
 * text prefixes and integer arrays, into a buffer it sizes in a first
 * call.
 *
 * Build: cc -O2 -ftree-vectorize -shared -fPIC (never -ffast-math: the
 * non-finite checks and the exact draw rely on IEEE semantics; the vector
 * loops are element-wise, so they give the same bits).
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define CHUNK 8

/* return codes, mirrored in _native.py */
enum { DONE = 0, REFRESH = 1, NONFINITE = -1, ALL_ZERO = -2, DEGENERATE = -3,
       FULL = -4, OVERFLOW = -5 };

/* io array slots, mirrored in _native.py: the resume position in the order,
 * k_active, documents moved so far, whether the document at the resume
 * position is already detached, and its former cluster and pruned flag;
 * BAD receives the cluster whose score was non-finite */
enum { IO_POS, IO_K, IO_MOVED, IO_RESUME, IO_ZOLD, IO_PRUNED, IO_BAD, IO_LEN };

/* The active clusters' classes of equal (m, n), built on each entry into
 * sparse mode. cls[z] is cluster z's class. A class lists its
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

/* A slot of a count table: cluster z (-1 free) and its count n (0 free). */
typedef struct {
    int32_t z, n;
} Cell;

/* The work space of a call, in the binding. The plan (list, ent, nc) is the
 * one set of clusters the current document is scored against. Dense keeps
 * its plan across documents and rebuilds it when a cluster empties or fills
 * (plan_dense), sparse rewrites it for every document (plan_sparse); a
 * change of mode happens only at those events, and replan makes the plan of
 * the new mode. */
typedef struct {
    double *num, *den, *score, *cum;
    double *nd;       /* per plan entry: its cluster's n */
    double *cv;       /* per plan entry: the current word's count there */
    int64_t *list;    /* the nc clusters scored */
    int64_t *ent;     /* active cluster -> the entry in list it reads */
    int64_t nc;
    int64_t *mark;    /* per cluster, 0 between documents: listed by the plan */
} Scratch;

/* A bound model state (dmm_bind). dmm_sweep and dmm_scores work on a copy,
 * so the fields from crossover on hold only within a call. logm and x.num
 * come first: the float work space lies between them, which is where
 * _native.Kernel._float_work finds it. */
typedef struct {
    double *logm;        /* (n_docs + 1,) log(m + alpha) for each m */
    Scratch x;
    const int64_t *ptr;  /* (V + 1,) word w's table: slots ptr[w]:ptr[w + 1] */
    Cell *cell;
    int64_t n_words;     /* V */
    int64_t kmax;
    int64_t *m, *n;      /* (kmax,) document and token counts */
    int64_t *assign;     /* (n_docs,) cluster per document, -1 when detached */
    int64_t n_docs;
    int64_t crossover;   /* sparse while more are occupied than this */
    int64_t occupied;    /* active clusters with m > 0 or n > 0 */
    int64_t sparse;      /* the current scoring mode */
    int64_t held;        /* the cluster whose cells still hold the counts of
                          * the detached document being scored, or -1 */
    Classes cl;          /* kept in sparse mode */
} Model;

typedef struct {
    const double *h;  /* (V,) per-word pseudo-count */
    double ctot;      /* pseudo-count total over the vocabulary */
    double alpha;
    const double *logm;  /* (nlog,) log(m + alpha) for m < nlog */
    int64_t nlog;
} Weights;

/* Ready the work space for a call. A free slot's key, -1, indexes ent and
 * mark too: ent[-1] sends its count, 0, to cv[kmax], which nothing reads,
 * and mark[-1] = 1 keeps it out of the plan, so the loops over a table take
 * no branch on whether a slot is free. mark is zeroed, and every entry of
 * ent starts at kmax, so that no key sends a count outside cv. */
static Scratch *ready(Model *s)
{
    for (int64_t z = -1; z < s->kmax; z++) {
        s->x.ent[z] = s->kmax;  /* cv[kmax] until a plan is made */
        s->x.mark[z] = 0;
    }
    s->x.mark[-1] = 1;
    return &s->x;
}

/* The slot of cell (w, z): the one holding it, or the free slot that ends
 * its probe run, where it goes; -1 for a full table without it (a state
 * sized for another corpus). A table with room for kmax cells has a slot
 * for every cluster, its home, and the cluster is there or nowhere. */
static int64_t slot_of(const Model *s, int64_t w, int64_t z)
{
    const int64_t lo = s->ptr[w], mask = s->ptr[w + 1] - lo - 1;
    if (mask >= s->kmax - 1)
        return lo + z;
    int64_t i = z & mask;
    for (int64_t t = 0; t <= mask; t++, i = (i + 1) & mask) {
        const int32_t key = s->cell[lo + i].z;
        if (key < 0 || key == z)
            return lo + i;
    }
    return -1;
}

/* The count of word w in cluster z; a free slot holds 0. */
static int32_t count(const Model *s, int64_t w, int64_t z)
{
    const int64_t i = slot_of(s, w, z);
    return i < 0 ? 0 : s->cell[i].n;
}

/* Free slot i of word w's table by backward-shift deletion: each later cell
 * of the probe run that may move into the hole (its home is not cyclically
 * after the hole) does, and the hole moves to where it was, so no slot is
 * ever marked deleted. The same scheme as leave's for the classes. In a
 * table with room for kmax cells each cell is at its home and stays. */
static void drop(const Model *s, int64_t w, int64_t i)
{
    const int64_t lo = s->ptr[w], mask = s->ptr[w + 1] - lo - 1;
    int64_t hole = i - lo, j = hole;
    for (int64_t t = 0; t < mask && mask < s->kmax - 1; t++) {
        j = (j + 1) & mask;
        const int32_t key = s->cell[lo + j].z;
        if (key < 0)
            break;
        if (((j - (key & mask)) & mask) >= ((j - hole) & mask)) {
            s->cell[lo + hole].z = key;
            s->cell[lo + hole].n = s->cell[lo + j].n;
            hole = j;
        }
    }
    s->cell[lo + hole].z = -1;
    s->cell[lo + hole].n = 0;
}

/* Add delta to the count of word w in cluster z: a new cell takes the free
 * slot that ends its probe run, and a cell whose count reaches 0 leaves.
 * Returns DONE, FULL for a full table, or OVERFLOW, changing nothing, for a
 * sum outside int32. */
static int64_t add(const Model *s, int64_t w, int64_t z, int32_t delta)
{
    if (!delta)
        return DONE;
    const int64_t i = slot_of(s, w, z);
    if (i < 0)
        return FULL;
    const int64_t sum = (int64_t)s->cell[i].n + delta;
    if (sum < INT32_MIN || sum > INT32_MAX)
        return OVERFLOW;
    s->cell[i].z = (int32_t)z;
    s->cell[i].n = (int32_t)sum;
    if (!sum)
        drop(s, w, i);
    return DONE;
}

/* Move word w's count in cluster src, if it has one, into cluster dst: the
 * cell leaves its table and its count joins dst's, under dst's home. Returns
 * add's code. */
static int64_t move_cell(Model *s, int64_t w, int64_t src, int64_t dst)
{
    const int64_t i = slot_of(s, w, src);
    if (i < 0 || s->cell[i].z < 0)
        return DONE;
    const int32_t c = s->cell[i].n;
    drop(s, w, i);
    return add(s, w, dst, c);
}

/* How many slots from the start of word w's table can hold a cell when
 * every cell's cluster is below k: all of them, or only the first k when
 * the capacity reaches k. Then the cells' homes, their clusters, are all
 * distinct, so each cell sits at its home: linear probing moves a cell off
 * its home only past another cell of the same home, and backward-shift
 * deletion leaves a table as if the cells gone had never been inserted.
 * The first k slots then read as the word's count row, free slots as 0. */
static int64_t span(const int64_t *ptr, int64_t w, int64_t k)
{
    const int64_t cap = ptr[w + 1] - ptr[w];
    return k < cap ? k : cap;
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
    if (!s->sparse)
        return;
    leave(&s->cl, z);
    join(&s->cl, z, s->m[z], s->n[z]);
}

/* log(m + alpha): from the table (dmm_sweep fills it with the same
 * expression), or computed for an m past it. */
static double log_m(const Weights *wt, int64_t m)
{
    return (uint64_t)m < (uint64_t)wt->nlog ? wt->logm[m]
                                             : log((double)m + wt->alpha);
}

/* The dense plan of the k active clusters: the occupied ones (m > 0 or
 * n > 0) plus the lowest empty one, in index order, every empty cluster
 * reading the representative's entry. */
static void plan_dense(const Model *s, Scratch *x, int64_t k)
{
    int64_t nc = 0, rep = -1;
    for (int64_t z = 0; z < k; z++) {
        if (s->m[z] || s->n[z] || rep < 0) {
            if (!(s->m[z] || s->n[z]))
                rep = nc;
            x->ent[z] = nc;
            x->list[nc++] = z;
        } else {
            x->ent[z] = rep;
        }
    }
    x->nc = nc;
}

/* The number of occupied clusters (m > 0 or n > 0) among the k active. */
static int64_t count_occupied(const Model *s, int64_t k)
{
    int64_t occ = 0;
    for (int64_t z = 0; z < k; z++)
        occ += s->m[z] || s->n[z];
    return occ;
}

/* Set the mode from s->occupied, on entry and after a cluster emptied or
 * filled: sparse exactly while more than s->crossover clusters are
 * occupied. Entering sparse mode builds the classes, which dense mode does
 * not keep; dense mode rebuilds its plan, which sparse makes per document. */
static void replan(Model *s, Scratch *x, int64_t k)
{
    const int64_t sparse = s->occupied > s->crossover;
    if (sparse && !s->sparse)
        build_classes(s, k);
    s->sparse = sparse;
    if (!sparse)
        plan_dense(s, x, k);
}

/* The sparse plan for one document of nw distinct words: the clusters that
 * share a word with it (the cells of the words' tables), each reading its
 * own entry, then one member of each class that has a member sharing none,
 * whose entry the class's other members read (a class whose members all
 * share a word has none). Sets x->nc, at most k (all distinct), and returns
 * the number of the first kind. */
static int64_t plan_sparse(Model *s, Scratch *x, int64_t k,
                           const int64_t *words, int64_t nw)
{
    int64_t nc = 0;
    for (int64_t a = 0; a < nw; a++) {
        const int64_t lo = s->ptr[words[a]];
        const int64_t end = lo + span(s->ptr, words[a], k);
        for (int64_t i = lo; i < end; i++) {
            const int32_t z = s->cell[i].z;
            x->list[nc] = z;
            nc += !x->mark[z];
            x->mark[z] = 1;
        }
    }
    const int64_t overlap = nc;
    Classes *c = &s->cl;
    for (int64_t i = 0; i < c->live; i++) {
        const int64_t id = c->ids[i];
        int64_t z = c->head[id];
        while (z >= 0 && x->mark[z])
            z = c->next[z];
        c->ent[id] = z < 0 ? -1 : nc;
        if (z >= 0)
            x->list[nc++] = z;
    }
    x->nc = nc;
    for (int64_t z = 0; z < k; z++)
        x->ent[z] = c->ent[c->cls[z]];
    for (int64_t j = 0; j < overlap; j++) {
        x->ent[x->list[j]] = j;
        x->mark[x->list[j]] = 0;
    }
    return overlap;
}

/* Sum of the per-factor logs of len tokens starting at occurrence c of
 * distinct word a (token index i), against cluster z: the reference form,
 * reading each count from its table (less the document's own in s->held). */
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
        const int32_t held = z == s->held ? counts[a] : 0;
        num += log((double)(count(s, w, z) - held) + (wt->h[w] + (double)c));
        den += log((double)s->n[z] + (wt->ctot + (double)i));
        c++;
        i++;
        len--;
    }
    return num - den;
}

/* Add one chunk of len factors, starting at occurrence c0 of distinct word
 * a0 (token index i0), to each planned cluster's score and reset the
 * products. */
static void flush(const Model *s, const Weights *wt, const Scratch *x,
                  const int64_t *words, const int32_t *counts, int64_t a0,
                  int64_t c0, int64_t i0, int64_t len, int suspect)
{
    double *num = x->num, *den = x->den, *out = x->score;
    for (int64_t j = 0; j < x->nc; j++) {
        const double p = num[j], q = den[j], r = p / q;
        if (!suspect && p >= DBL_MIN && p <= DBL_MAX && q >= DBL_MIN
            && q <= DBL_MAX && r >= DBL_MIN && r <= DBL_MAX)
            out[j] += log(r);
        else
            out[j] += factor_logs(s, wt, x->list[j], words, counts, a0, c0,
                                  i0, len);
        num[j] = den[j] = 1.0;
    }
}

/* Unnormalized log conditional of one document (already detached) for each
 * of the x->nc planned clusters, written to x->score; x->num and x->den are
 * work space. The first nr read their counts, which each word's table is
 * scattered into (x->cv, 0 for a cluster without a cell; s->held's less
 * the document's own, which its cells still hold); the rest have count 0
 * for every word. Every cell of the table is in the plan's first nr
 * entries: dense plans every occupied cluster, sparse every one sharing a
 * word. */
static void score_doc(const Model *s, const Weights *wt, const Scratch *x,
                      int64_t k, int64_t nr, const int64_t *words,
                      const int32_t *counts, int64_t nw)
{
    const int64_t *list = x->list, ns = x->nc;
    double *num = x->num, *den = x->den, *out = x->score, *nd = x->nd;
    for (int64_t j = 0; j < ns; j++) {
        out[j] = log_m(wt, s->m[list[j]]);
        num[j] = den[j] = 1.0;
        nd[j] = (double)s->n[list[j]];
    }
    /* start of the current chunk: distinct word, occurrence, token index */
    int64_t a0 = 0, c0 = 0, i0 = 0, len = 0, i = 0;
    int suspect = 0;
    double *cv = x->cv;
    for (int64_t a = 0; a < nw; a++) {
        const int64_t lo = s->ptr[words[a]];
        if (span(s->ptr, words[a], k) == k) {  /* the count row */
            for (int64_t j = 0; j < nr; j++)
                cv[j] = (double)s->cell[lo + list[j]].n;
        } else {
            for (int64_t j = 0; j < nr; j++)
                cv[j] = 0.0;
            for (int64_t t = lo; t < s->ptr[words[a] + 1]; t++)
                cv[x->ent[s->cell[t].z]] = (double)s->cell[t].n;
        }
        if (s->held >= 0)
            cv[x->ent[s->held]] -= (double)counts[a];
        const double cw = wt->h[words[a]];
        for (int64_t c = 0; c < counts[a]; c++, i++) {
            const double add = cw + (double)c, tot = wt->ctot + (double)i;
            suspect |= !(add > 0.0) || !(tot > 0.0);
            for (int64_t j = 0; j < nr; j++) {
                num[j] *= cv[j] + add;
                den[j] *= nd[j] + tot;
            }
            const double absent = (double)0 + add;
            for (int64_t j = nr; j < ns; j++) {
                num[j] *= absent;
                den[j] *= nd[j] + tot;
            }
            if (++len == CHUNK) {
                flush(s, wt, x, words, counts, a0, c0, i0, len, suspect);
                a0 = a;
                c0 = c + 1;
                i0 = i + 1;
                len = 0;
                suspect = 0;
            }
        }
    }
    if (len)
        flush(s, wt, x, words, counts, a0, c0, i0, len, suspect);
}

/* Score the document into x->score against the plan: dense, the one
 * plan_dense keeps, every cluster in it reading counts; sparse, the
 * document's own, in which only those sharing a word do. */
static void score_slots(Model *s, const Weights *wt, Scratch *x, int64_t k,
                        const int64_t *words, const int32_t *counts,
                        int64_t nw)
{
    const int64_t nr = s->sparse ? plan_sparse(s, x, k, words, nw) : x->nc;
    score_doc(s, wt, x, k, nr, words, counts, nw);
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
    while (j < x->nc && !bad_score(x->score[j], s->m[x->list[j]]))
        j++;
    if (j == x->nc)
        return -1;
    for (int64_t z = 0; z < k; z++)
        if (bad_score(x->score[x->ent[z]], s->m[z]))
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
        acc += p[x->ent[z]];
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
    while (p[x->ent[z]] == 0.0)
        z--;
    return z;
}

/* Add (sign 1) or remove (sign -1) a document's m and n in cluster z. */
static void move_totals(Model *s, int64_t z, int64_t total, int32_t sign)
{
    s->m[z] += sign;
    s->n[z] += sign * total;
    reclass(s, z);
}

/* Add (sign 1) or remove (sign -1) a document's word counts in cluster z.
 * Returns DONE, or add's code at the first pair it refuses. */
static int64_t move_cells(Model *s, int64_t z, const int64_t *words,
                          const int32_t *counts, int64_t nw, int32_t sign)
{
    int64_t code = DONE;
    for (int64_t a = 0; a < nw && code == DONE; a++)
        code = add(s, words[a], z, sign * counts[a]);
    return code;
}

/* Remove emptied cluster z, moving the last active cluster into its slot.
 * Cluster z has no cell (its token total n[z] is 0), and the cells of
 * cluster last are exactly those of the words of the documents assigned to
 * last, so one scan of the assignments relabels those documents and moves
 * their cells: O(D + tokens of last), not O(V). A word two of them share is
 * moved once; the second finds no cell of last. Returns DONE, or add's
 * code at the first cell it refuses. */
static int64_t deactivate(Model *s, int64_t z, int64_t *k,
                          const int64_t *word_ptr, const int64_t *words)
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
                const int64_t code = move_cell(s, words[a], last, z);
                if (code != DONE)
                    return code;
            }
        }
    }
    if (s->sparse)
        leave(&s->cl, last);
    s->m[last] = 0;
    s->n[last] = 0;
    *k = last;
    return DONE;
}

/* Bind a model state (its tables, of n_words words, m, n and assignments)
 * into bound[0:cap]: its Model, the float work space (num, den, score, cum,
 * nd, kmax each, and cv, kmax + 1), the log table (n_docs + 1), then the
 * integer work space (list, kmax + 1; ent and mark, 1 + kmax each, from
 * index -1; the classes' nine arrays, kmax each, and their cells). Returns
 * the number of int64 words that takes, laid out only when cap is that
 * number, so a first call sizes the buffer of the second. The caller keeps
 * the arrays and the buffer alive, and the arrays in place, while it binds. */
int64_t dmm_bind(const int64_t *ptr, Cell *cell, int64_t n_words,
                 int64_t kmax, int64_t *m, int64_t *n, int64_t *assign,
                 int64_t n_docs, int64_t *bound, int64_t cap)
{
    const int64_t head = (int64_t)((sizeof(Model) + 7) / 8);
    int64_t cells = 1;
    while (cells < 2 * kmax)
        cells <<= 1;
    const int64_t size = head + (6 * kmax + 1) + (n_docs + 1)
                         + (12 * kmax + 3) + cells;
    if (cap != size)
        return size;
    double *f = (double *)(bound + head);
    int64_t *i = (int64_t *)(f + 6 * kmax + 1 + n_docs + 1);
    int64_t *c = i + 3 * kmax + 3;
    *(Model *)bound = (Model){
        .logm = f + 6 * kmax + 1,
        .x = {.num = f, .den = f + kmax, .score = f + 2 * kmax,
              .cum = f + 3 * kmax, .nd = f + 4 * kmax, .cv = f + 5 * kmax,
              .list = i, .ent = i + kmax + 2, .mark = i + 2 * kmax + 3},
        .ptr = ptr, .cell = cell, .n_words = n_words, .kmax = kmax, .m = m,
        .n = n, .assign = assign, .n_docs = n_docs, .held = -1,
        .cl = {.cls = c, .next = c + kmax, .prev = c + 2 * kmax,
               .head = c + 3 * kmax, .key_m = c + 4 * kmax,
               .key_n = c + 5 * kmax, .ent = c + 6 * kmax,
               .ids = c + 7 * kmax, .pos = c + 8 * kmax,
               .cells = c + 9 * kmax, .mask = cells - 1}};
    return size;
}

/* Score one detached document against every active cluster, k of them,
 * into out (k,), sparse when more than crossover clusters are occupied.
 * The tables are only read, and each log(m + alpha) is computed, not read
 * from the binding's table. Returns DONE, or NONFINITE with the cluster in
 * *bad. */
int64_t dmm_scores(const Model *bound, int64_t k, const int64_t *words,
                   const int32_t *counts, int64_t nw, const double *h,
                   double ctot, double alpha, int64_t crossover, double *out,
                   int64_t *bad)
{
    Model s = *bound;
    s.crossover = crossover;
    const Weights wt = {h, ctot, alpha, s.logm, 0};
    Scratch *x = ready(&s);
    s.occupied = count_occupied(&s, k);
    replan(&s, x, k);
    score_slots(&s, &wt, x, k, words, counts, nw);
    for (int64_t z = 0; z < k; z++)
        out[z] = x->score[x->ent[z]];
    *bad = bad_cluster(&s, x, k);
    return *bad < 0 ? DONE : NONFINITE;
}

/* Run the document steps order[io[IO_POS]:n_order], document order[i]
 * drawing with uniform u[i]. A document with a cluster is detached first;
 * one with assignment -1 only joins. With refresh_step > 0 the call returns
 * REFRESH after detaching (and pruning for) each position that is a multiple
 * of refresh_step, so the caller can recompute h and call again to resume.
 * A document scores sparse when more than crossover clusters are occupied
 * as it is scored. The binding's log table is filled on the first entry;
 * later entries resume after a REFRESH and keep it. Returns DONE, REFRESH
 * or a negative code; io always holds the position and counts reached. */
int64_t dmm_sweep(const Model *bound, const int64_t *word_ptr,
                  const int64_t *words, const int32_t *counts,
                  const int64_t *order, const double *u, int64_t n_order,
                  const double *h, double ctot, double alpha, int64_t prune,
                  int64_t refresh_step, int64_t crossover, int64_t *io)
{
    Model s = *bound;
    s.crossover = crossover;
    const Weights wt = {h, ctot, alpha, s.logm, s.n_docs + 1};
    Scratch *x = ready(&s);
    int64_t k = io[IO_K], moved = io[IO_MOVED], pos = io[IO_POS];
    int64_t code = DONE;

    if (!io[IO_RESUME])
        for (int64_t i = 0; i < wt.nlog; i++)
            s.logm[i] = log((double)i + alpha);
    s.occupied = count_occupied(&s, k);
    replan(&s, x, k);

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
            z_old = s.assign[d];
            const int refreshing = refresh_step > 0
                                   && pos % refresh_step == 0;
            if (z_old >= 0) {
                move_totals(&s, z_old, total, -1);
                s.assign[d] = -1;
                const int emptied = !s.m[z_old] && !s.n[z_old];
                /* the cells wait for the draw unless a refresh or a prune
                 * reads the tables first */
                if (!emptied && !refreshing) {
                    s.held = z_old;
                } else if ((code = move_cells(&s, z_old, w, c, nw, -1))
                           != DONE) {
                    break;
                }
                if (emptied) {
                    if (prune) {
                        if ((code = deactivate(&s, z_old, &k, word_ptr,
                                               words)) != DONE)
                            break;
                        pruned = 1;
                    }
                    s.occupied--;
                    replan(&s, x, k);
                }
            }
            if (refreshing) {
                io[IO_RESUME] = 1;
                io[IO_ZOLD] = z_old;
                io[IO_PRUNED] = pruned;
                code = REFRESH;
                break;
            }
        }
        score_slots(&s, &wt, x, k, w, c, nw);
        io[IO_BAD] = bad_cluster(&s, x, k);
        const int64_t z_new = io[IO_BAD] >= 0 ? NONFINITE
                                              : draw(x, k, u[pos]);
        const int64_t held = s.held;
        s.held = -1;
        if (held >= 0 && z_new != held
            && (code = move_cells(&s, held, w, c, nw, -1)) != DONE)
            break;
        if (z_new < 0) {
            code = z_new;
            break;
        }
        const int filled = !s.m[z_new] && !s.n[z_new];
        move_totals(&s, z_new, total, 1);
        if (z_new != held
            && (code = move_cells(&s, z_new, w, c, nw, 1)) != DONE)
            break;
        s.assign[d] = z_new;
        if (filled) {
            s.occupied++;
            replan(&s, x, k);
        }
        if (pruned || z_new != z_old)
            moved++;
    }
    io[IO_POS] = pos;
    io[IO_K] = k;
    io[IO_MOVED] = moved;
    return code;
}

/* The occupied cells of the bound tables, word by word
 * and, within a word, clusters ascending: each cell's word, cluster and
 * count go to out_w, out_z and out_n, which have room for every slot. A
 * word's first span(k) slots are copied out, each slot written and only
 * the occupied ones kept (no branch on a free slot), and the kept cells
 * are sorted by cluster by insertion. A table with a slot for each of the
 * k active clusters holds each cell at its home (span), so its run is
 * sorted already; a smaller table is read whole and is at most half full.
 * Returns the number of cells. */
int64_t dmm_cells(const Model *bound, int64_t k, int64_t *out_w,
                  int64_t *out_z, int32_t *out_n)
{
    const int64_t *ptr = bound->ptr;
    const Cell *cell = bound->cell;
    int64_t nc = 0;
    for (int64_t w = 0; w < bound->n_words; w++) {
        const int64_t first = nc, lo = ptr[w], end = lo + span(ptr, w, k);
        for (int64_t t = lo; t < end; t++) {
            out_w[nc] = w;
            out_z[nc] = cell[t].z;
            out_n[nc] = cell[t].n;
            nc += cell[t].z >= 0;
        }
        for (int64_t i = first + 1; i < nc; i++) {
            const int64_t z = out_z[i];
            const int32_t n = out_n[i];
            int64_t j = i;
            for (; j > first && out_z[j - 1] > z; j--) {
                out_z[j] = out_z[j - 1];
                out_n[j] = out_n[j - 1];
            }
            out_z[j] = z;
            out_n[j] = n;
        }
    }
    return nc;
}

/* Add counts[i] to the count of word words[i] in cluster clusters[i], for
 * each i < len in turn: model.ModelState.add_counts in C, which checks the
 * ids and counts. Returns DONE, or add's code (FULL or OVERFLOW) at the
 * first pair it refuses, with the pairs before it added. */
int64_t dmm_add(const Model *bound, const int64_t *words,
                const int64_t *clusters, const int32_t *counts, int64_t len)
{
    int64_t code = DONE;
    for (int64_t i = 0; i < len && code == DONE; i++)
        code = add(bound, words[i], clusters[i], counts[i]);
    return code;
}

/* The count of word words[i] in cluster clusters[i] into out[i], for each
 * i < len, 0 where the word has no cell: model.ModelState.counts_of in C,
 * which checks the ids. One probe per pair. */
void dmm_counts(const Model *bound, const int64_t *words,
                const int64_t *clusters, int64_t len, int32_t *out)
{
    for (int64_t i = 0; i < len; i++)
        out[i] = count(bound, words[i], clusters[i]);
}

/* ---- Byte scans for ingestion and the archive reader ----
 *
 * The tokenizer's runs: corpus.build_corpus passes the UTF-8 bytes of its
 * lowercased texts joined by NUL. A byte in a..z is always that ASCII
 * letter in UTF-8 (every byte of a multi-byte sequence is 0x80 or above),
 * so the runs of such bytes are the runs the regex [a-z]+ finds in the
 * text. */

static int is_lower(uint8_t b)
{
    return (uint8_t)(b - 'a') < 26;
}

/* The number of runs of a..z bytes in buf[0:len]: the letters not after a
 * letter, counted without a branch. */
int64_t dmm_count_runs(const uint8_t *buf, int64_t len)
{
    if (len <= 0)
        return 0;
    int64_t n = is_lower(buf[0]);
    for (int64_t i = 1; i < len; i++)
        n += is_lower(buf[i]) & !is_lower(buf[i - 1]);
    return n;
}

/* FNV-1a of buf[0:n], its high half folded into the low one (dmm_runs
 * computes the same as it scans a run). */
static uint64_t hash_bytes(const uint8_t *buf, int64_t n)
{
    uint64_t h = 0xCBF29CE484222325u;
    for (int64_t i = 0; i < n; i++)
        h = (h ^ buf[i]) * 0x100000001B3u;
    return h ^ h >> 32;
}

/* The n_runs runs of a..z bytes in buf[0:len]: run r is in segment seg[r],
 * the number of NUL bytes before it, and is part part[r], the parts (the
 * distinct runs) numbered by first appearance. Part p's first run is
 * buf[first[p]:first[p] + first_len[p]]; first and first_len have room for
 * n_runs parts. A hash table maps a run's bytes to its part by linear
 * probing. It starts small, so that it stays in cache, and doubles when
 * half full, up to all of table, whose size (mask + 1, a power of two
 * above 2 * n_runs) it never needs to pass; only its first mask + 1 slots
 * are ever written. Returns the number of parts, or -1 when buf holds more
 * runs than n_runs. */
int64_t dmm_runs(const uint8_t *buf, int64_t len, int64_t n_runs,
                 int64_t *seg, int64_t *part, int64_t *first,
                 int64_t *first_len, int64_t *table, int64_t mask)
{
    int64_t r = 0, parts = 0, s = 0, m = mask < 1023 ? mask : 1023;
    for (int64_t t = 0; t <= m; t++)
        table[t] = -1;
    for (int64_t i = 0; i < len;) {
        uint8_t b = buf[i];
        if (!is_lower(b)) {
            s += !b;
            i++;
            continue;
        }
        if (r == n_runs)
            return -1;
        const int64_t lo = i;
        uint64_t h = 0xCBF29CE484222325u;
        do {
            h = (h ^ b) * 0x100000001B3u;
            b = ++i < len ? buf[i] : 0;
        } while (is_lower(b));
        h ^= h >> 32;
        const int64_t n = i - lo;
        int64_t t = (int64_t)(h & (uint64_t)m), p;
        for (;; t = (t + 1) & m) {
            p = table[t];
            if (p < 0 || (first_len[p] == n
                          && !memcmp(buf + first[p], buf + lo, (size_t)n)))
                break;
        }
        if (p < 0) {
            p = parts++;
            table[t] = p;
            first[p] = lo;
            first_len[p] = n;
            if (2 * parts > m && m < mask) {  /* double, and insert anew */
                m = 2 * m + 1;
                for (t = 0; t <= m; t++)
                    table[t] = -1;
                for (int64_t q = 0; q < parts; q++) {
                    t = (int64_t)(hash_bytes(buf + first[q], first_len[q])
                                  & (uint64_t)m);
                    while (table[t] >= 0)
                        t = (t + 1) & m;
                    table[t] = q;
                }
            }
        }
        seg[r] = s;
        part[r++] = p;
    }
    return parts;
}

/* The archive scans: archive passes the bytes of documents.txt, of
 * vocabulary.tsv and of the body of a run's assignments.csv, every line
 * ended by a line feed. Each scan accepts only files archive's line loop
 * reads without error; a refused file goes to that loop, which names its
 * first bad line. A value of more than MAX_DIGITS digits, which might not
 * fit int64, returns LONG, and the line loop reads the file. */

#define MAX_DIGITS 18  /* every number of 18 digits fits int64 */

enum { BAD = -1, LONG = -2 };

/* Read the ASCII digits at buf[*i], at most up to end, into *value and
 * advance *i past them. Returns how many there were, or LONG past
 * MAX_DIGITS. */
static int64_t digits(const uint8_t *buf, int64_t *i, int64_t end,
                      int64_t *value)
{
    const int64_t lo = *i;
    int64_t v = 0;
    for (; *i < end && (uint8_t)(buf[*i] - '0') < 10; (*i)++) {
        if (*i - lo == MAX_DIGITS)
            return LONG;
        v = 10 * v + (buf[*i] - '0');
    }
    *value = v;
    return *i - lo;
}

/* Whether a byte separates pairs: the ASCII whitespace str.split() splits
 * on, less the tab and the line feed that delimit the columns
 * (archive._SEPARATORS). */
static int separator(uint8_t b)
{
    return b == ' ' || b == 0x0b || b == 0x0c || (b >= 0x1c && b <= 0x1f);
}

/* The number of bytes equal to b in buf[0:len], counted without a branch:
 * the sizes of the scans' outputs. */
int64_t dmm_count_bytes(const uint8_t *buf, int64_t len, int64_t b)
{
    const uint8_t c = (uint8_t)b;
    int64_t n = 0;
    for (int64_t i = 0; i < len; i++)
        n += buf[i] == c;
    return n;
}

/* Parse documents.txt, buf[0:len]: n_lines lines, each
 * doc_id<TAB>label<TAB>pairs and ended by a line feed, the pairs
 * word_id:count in ASCII digits separated by runs of separator bytes.
 * Writes each pair's word id and count to words and counts (room for cap
 * pairs) and word_ptr[d + 1], the pairs up to the end of line d. Returns
 * the number of pairs; BAD for a line with other than two tabs, a byte
 * outside the pair syntax in its third column, or more pairs or lines
 * than given room for; LONG as above. */
int64_t dmm_pairs(const uint8_t *buf, int64_t len, int64_t *words,
                  int64_t *counts, int64_t cap, int64_t *word_ptr,
                  int64_t n_lines)
{
    int64_t np = 0, line = 0, i = 0;
    word_ptr[0] = 0;
    while (i < len) {
        if (line == n_lines)
            return BAD;
        for (int tabs = 0; tabs < 2; i++) {  /* the doc id and label */
            if (i == len || buf[i] == '\n')
                return BAD;
            tabs += buf[i] == '\t';
        }
        for (;;) {
            while (i < len && separator(buf[i]))
                i++;
            if (i == len)
                return BAD;
            if (buf[i] == '\n')
                break;
            if (np == cap)
                return BAD;
            int64_t w, c, nd = digits(buf, &i, len, &w);
            if (nd <= 0 || i == len || buf[i++] != ':')
                return nd == LONG ? LONG : BAD;
            nd = digits(buf, &i, len, &c);
            if (nd <= 0 || (i < len && buf[i] != '\n' && !separator(buf[i])))
                return nd == LONG ? LONG : BAD;
            words[np] = w;
            counts[np++] = c;
        }
        word_ptr[++line] = np;
        i++;
    }
    return line == n_lines ? np : BAD;
}

/* Parse vocabulary.tsv, buf[0:len]: n_lines lines, each id<TAB>word<TAB>df
 * and ended by a line feed, the id and df one or more ASCII digits and the
 * id equal to the line's index; the word is any bytes but a tab or a line
 * feed. Writes line d's df to df[d]. Returns DONE; BAD for a line that is
 * not of that form, or more lines than n_lines; LONG as above. */
int64_t dmm_vocabulary(const uint8_t *buf, int64_t len, int64_t *df,
                       int64_t n_lines)
{
    int64_t i = 0, line = 0;
    for (; i < len; line++) {
        if (line == n_lines)
            return BAD;
        int64_t id, nd = digits(buf, &i, len, &id);
        if (nd <= 0 || i == len || buf[i++] != '\t' || id != line)
            return nd == LONG ? LONG : BAD;
        while (i < len && buf[i] != '\t' && buf[i] != '\n')
            i++;
        if (i == len || buf[i++] != '\t')
            return BAD;
        nd = digits(buf, &i, len, df + line);
        if (nd <= 0 || i == len || buf[i++] != '\n')
            return nd == LONG ? LONG : BAD;
    }
    return line == n_lines ? DONE : BAD;
}

/* Parse the body of assignments.csv, buf[0:len]: n_lines lines, each
 * doc_id,cluster and ended by a line feed, the doc id any bytes but a
 * comma or a line feed and the cluster id ASCII digits, of which at most
 * MAX_DIGITS follow its leading zeros. Writes line d's cluster id to
 * out[d]. Returns DONE; BAD for a line of another form (a blank one too,
 * which the line loop skips) or more lines than n_lines; LONG for a
 * cluster id of more significant digits. */
int64_t dmm_assignments(const uint8_t *buf, int64_t len, int64_t *out,
                        int64_t n_lines)
{
    int64_t i = 0, line = 0;
    for (; i < len; line++) {
        if (line == n_lines)
            return BAD;
        while (i < len && buf[i] != ',' && buf[i] != '\n')
            i++;
        if (i == len || buf[i++] != ',')
            return BAD;
        const int64_t lo = i;
        while (i < len && buf[i] == '0')
            i++;
        if (digits(buf, &i, len, out + line) == LONG)
            return LONG;
        if (i == lo || i == len || buf[i++] != '\n')
            return BAD;
    }
    return line == n_lines ? DONE : BAD;
}

/* The number of bytes of v in decimal, a minus sign included. */
static int64_t decimal_len(int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int64_t n = 1 + (v < 0);
    for (; u >= 100; u /= 100)
        n += 2;
    return n + (u >= 10);
}

/* Write v in decimal, a minus sign first if it is negative, at out; returns
 * the end of what it wrote. */
static uint8_t *decimal(uint8_t *out, int64_t v)
{
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    uint8_t *const end = out + decimal_len(v);
    for (out = end; u >= 10; u /= 10)
        *--out = (uint8_t)('0' + u % 10);
    *--out = (uint8_t)('0' + u);
    if (v < 0)
        *--out = '-';
    return end;
}

/* Format a line file (documents.txt, the body of assignments.csv) into
 * out[0:cap]. Line d is the d-th prefix of prefix[0:prefix_len], its bytes
 * through its per_line-th byte equal to sep; then the items ptr[d] to
 * ptr[d + 1] - 1 separated by spaces, item i the width values
 * items[i * width:(i + 1) * width] in decimal separated by colons; then a
 * line feed. Returns the file's length and writes the file only when cap
 * is that length, so a first call sizes the buffer of the second; BAD
 * when the prefix text is not n_lines such prefixes or per_line or width
 * is below 1. The caller checks that ptr rises from 0. */
int64_t dmm_lines(const uint8_t *prefix, int64_t prefix_len, int64_t sep,
                  int64_t per_line, const int64_t *ptr, int64_t n_lines,
                  const int64_t *items, int64_t width, uint8_t *out,
                  int64_t cap)
{
    const uint8_t s = (uint8_t)sep;
    if (per_line < 1 || width < 1
        || dmm_count_bytes(prefix, prefix_len, s) != per_line * n_lines
        || (prefix_len && prefix[prefix_len - 1] != s))
        return BAD;
    int64_t size = prefix_len + n_lines;
    for (int64_t d = 0; d < n_lines; d++)  /* the spaces and colons */
        size += ptr[d + 1] > ptr[d] ? (ptr[d + 1] - ptr[d]) * width - 1 : 0;
    for (int64_t j = 0; j < ptr[n_lines] * width; j++)
        size += decimal_len(items[j]);
    if (cap != size)
        return size;
    const uint8_t *p = prefix;
    for (int64_t d = 0; d < n_lines; d++) {
        for (int64_t seen = 0; seen < per_line; seen += *out++ == s)
            *out = *p++;
        for (int64_t i = ptr[d]; i < ptr[d + 1]; i++) {
            if (i > ptr[d])
                *out++ = ' ';
            out = decimal(out, items[i * width]);
            for (int64_t c = 1; c < width; c++) {
                *out++ = ':';
                out = decimal(out, items[i * width + c]);
            }
        }
        *out++ = '\n';
    }
    return size;
}
