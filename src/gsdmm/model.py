"""Core probabilistic kernels for the Dirichlet multinomial mixture.

The collapsed conditional for a document choosing a cluster factorizes into
a cluster-size prior (m_z + alpha, up to a constant denominator) and a
word-match term: a rising product (n + c_w)(n + c_w + 1)... per word over a
matching product on cluster totals. c_w, a uniform pseudo-count beta or a
per-word entropy value, comes from weights.pseudocounts(V) with its total.
All evaluation is in log space; the z-constant denominator D - 1 + K*alpha
is omitted from scores and only reappears in the standalone prior factor.

Per-word counts are stored per word, in space bounded by the corpus: each
word has one open-addressing table of (cluster, count) cells, sized once
for the run from the number of documents holding the word (see
ModelState), so the state takes O(entries + V + k_max) memory, not
O(V x k_max). Every empty cluster has the same conditional, so the kernel
scores the occupied clusters plus one representative empty cluster and
spreads that score over the rest (the smoothing-only bucket of SparseLDA,
Yao, Mimno & McCallum, KDD 2009): per document the work scales with the
live cluster count, not with k_max. While many clusters are occupied the
compiled kernel takes that rule one step further: a cluster that shares no
word with the document has a score that depends on its (m, n) alone, so it
scores one cluster per distinct (m, n), and finds the clusters that share
a word by walking the tables of the document's words; the representative
empty cluster is then the (0, 0) case of that rule.

The numpy kernels here are the reference; cluster_log_scores takes the
arguments of the compiled Kernel.log_scores. Sampling runs the compiled
sweep kernel (_sweep.c, loaded by _native) when it can be built; it scores
the same slots in product form, and the tests hold its scores to these
within 1e-9 and its draws to the numpy reference steps' exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import _native
from .corpus import Corpus, Document, Vocabulary, occurrences
from .errors import ConfigError, InactiveCluster, NonFiniteScore

__all__ = [
    "ModelState",
    "check_token_total",
    "UniformBeta",
    "EntropyTable",
    "WeightingScheme",
    "prior_cluster_factor",
    "scored_slots",
    "cluster_log_scores",
    "doc_cluster_log_score",
    "conditional_distribution",
    "relative_weights",
    "word_entropy",
    "posterior_phi",
    "top_words",
]


@dataclass(frozen=True)
class UniformBeta:
    """Uniform per-word pseudo-count."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")

    def pseudocounts(self, v: int) -> tuple[np.ndarray, float]:
        """The (v,) float64 pseudo-counts, each beta, and their total."""
        return np.full(v, self.beta, dtype=np.float64), float(v * self.beta)


@dataclass(frozen=True)
class EntropyTable:
    """Per-word pseudo-counts derived from word entropy across clusters.

    word_entropy builds h strictly positive (for epsilon > 0) and, when
    normalized, in [0, 1] (division by log of the cluster count).
    """

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", np.ascontiguousarray(self.h, dtype=np.float64))
        if len(self.h) and not self.h.min() > 0:
            raise ValueError("entropy table must be strictly positive")

    @cached_property
    def sum_h(self) -> float:
        """The pseudo-counts' total, float(h.sum()), taken on first read."""
        return float(self.h.sum())

    def pseudocounts(self, v: int) -> tuple[np.ndarray, float]:
        """The table h, the pseudo-count of each of v words, and sum_h."""
        if len(self.h) != v:
            raise ValueError(f"entropy table covers {len(self.h)} words, state has {v}")
        return self.h, self.sum_h


WeightingScheme = Union[UniformBeta, EntropyTable]


def check_token_total(tokens: int) -> None:
    """A per-word count can reach the corpus token total, so a total beyond
    int32, the dtype of the counts, is refused up front."""
    if tokens > np.iinfo(np.int32).max:
        raise ConfigError(
            f"corpus has {tokens} tokens; the int32 counts hold "
            f"at most {np.iinfo(np.int32).max}"
        )


_INT32_MAX = int(np.iinfo(np.int32).max)


class ModelState:
    """Mutable sufficient statistics: the sole object the sampler writes.

    Clusters live in slots [0, k_active) of fixed-capacity arrays. m[z] is
    the document count and n[z] the token count. Cluster membership lives
    only in the assignment array. Pruning and merging move one cluster into
    another with fold, which relabels the moved cluster's documents by
    scanning it. The sizes D, V and k_max are read from the arrays.

    The per-word token counts are stored per word, in space bounded by the
    corpus: word w's nonzero counts are (cluster, count) cells of an
    open-addressing table, rows cell_ptr[w]:cell_ptr[w + 1] of table, an
    (S, 2) int32 array whose columns cell_z and cell_n hold each slot's
    cluster (-1 for a free slot) and count (0 in a free slot). A word in
    df_w documents occupies at most min(df_w, k_max) clusters, and its
    table's capacity is the first power of two at or above
    min(2 df_w, k_max): at least half of the table stays free, or every
    cluster has a slot of its own; no table is ever rehashed. A cell lives
    at the first slot of its probe run from its home slot,
    cluster & (capacity - 1), that holds it (linear probing); a cell whose
    count reaches 0 leaves its table by backward-shift deletion, so no slot
    is ever marked deleted. The compiled kernel (_sweep.c) keeps the same
    tables with the same operations. wz, the dense (V, k_max) matrix, and
    nzw, its (k_max, V) transpose, are derived read-only views for tests
    and oracles; nothing on the run path builds them.
    """

    def __init__(self, n_docs: int, vocab_size: int, k_max: int, alpha: float,
                 k_active: int | None = None, doc_freq=None):
        """doc_freq, when given, is the number of documents of the counted
        corpus that hold each word, which bounds the clusters it can
        occupy; without it every word's table has room for all k_max."""
        if not 1 <= k_max <= _INT32_MAX:
            raise ValueError(f"k_max must be in [1, {_INT32_MAX}], got {k_max}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.k_active = k_max if k_active is None else k_active
        self.alpha = float(alpha)
        self.m = np.zeros(k_max, dtype=np.int64)
        self.n = np.zeros(k_max, dtype=np.int64)
        self.assignments = np.full(n_docs, -1, dtype=np.int64)
        self.cell_ptr = _table_offsets(vocab_size, k_max, doc_freq)
        self.table = np.zeros((int(self.cell_ptr[-1]), 2), dtype=np.int32)
        self.cell_z[:] = -1

    @classmethod
    def for_corpus(cls, corpus: Corpus, k_max: int, alpha: float) -> "ModelState":
        """Empty state sized for a corpus; see check_token_total. A size
        whose arrays cannot be allocated is a ConfigError naming it."""
        csr = corpus.token_csr
        check_token_total(int(csr.tok_ptr[-1]))
        v = corpus.vocabulary.size
        doc_freq = np.bincount(csr.words, minlength=v)
        slots = int(_table_capacities(doc_freq, k_max).sum())
        # m and n, assignments, the table offsets, then the table
        need = 16 * k_max + 8 * len(corpus) + 8 * (v + 1) + 8 * slots
        if need <= np.iinfo(np.intp).max:  # numpy refuses larger outright
            if k_max > _INT32_MAX:
                raise ConfigError(f"k_max={k_max} over V={v} words: the int32 "
                                  f"count tables name at most {_INT32_MAX} "
                                  "clusters")
            try:
                return cls(len(corpus), v, k_max, alpha, doc_freq=doc_freq)
            except MemoryError:
                pass
        raise ConfigError(f"k_max={k_max} over V={v} words needs {need} bytes "
                          "of counts, more than can be allocated")

    @property
    def D(self) -> int:
        return len(self.assignments)

    @property
    def V(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def k_max(self) -> int:
        return len(self.m)

    @property
    def cell_z(self) -> np.ndarray:
        """Each slot's cluster, -1 when free: a view of table."""
        return self.table[:, 0]

    @property
    def cell_n(self) -> np.ndarray:
        """Each slot's count, 0 when free: a view of table."""
        return self.table[:, 1]

    @property
    def wz(self) -> np.ndarray:
        """The counts as a dense word-major (V, k_max) int32 matrix, built
        from the tables on every read and read-only: for tests and
        oracles, never the run path."""
        words, clusters, counts = self._cells()
        wz = np.zeros((self.V, self.k_max), dtype=np.int32)
        wz[words, clusters] = counts
        wz.flags.writeable = False
        return wz

    @property
    def nzw(self) -> np.ndarray:
        """wz's cluster-major (k_max, V) transpose; perfbench reads it
        (ROADMAP item 1)."""
        return self.wz.T

    def copy(self) -> "ModelState":
        dup = ModelState.__new__(ModelState)
        dup.k_active, dup.alpha = self.k_active, self.alpha
        dup.m = self.m.copy()
        dup.n = self.n.copy()
        dup.assignments = self.assignments.copy()
        dup.cell_ptr = self.cell_ptr  # read-only
        dup.table = self.table.copy()
        return dup

    def counts_of(self, words, clusters) -> np.ndarray:
        """The counts (int32) of words in clusters, elementwise (a scalar
        broadcasts); 0 where a word has no cell. Word ids must lie in
        [0, V) and clusters in [0, k_max). In C (Kernel.counts, one probe
        per cell) when the kernel can be built, else through the numpy
        probe (_probe)."""
        words, clusters = (a.ravel() for a in np.broadcast_arrays(
            np.asarray(words, dtype=np.int64), np.asarray(clusters, dtype=np.int64)))
        self._check_ids(words, clusters)
        kernel = _native.kernel()
        if kernel is not None:
            return kernel.counts(self, words, clusters)
        slots = self._probe(words, clusters)
        return np.where(slots >= 0, self.cell_n[slots], 0).astype(np.int32)

    def cluster_cells(self, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Cluster z's nonzero counts as (words ascending, counts), from one
        scan of the tables."""
        slots = np.flatnonzero(self.cell_z == z)
        return self._slot_words(slots), self.cell_n[slots]

    def add_counts(self, words, clusters, counts) -> None:
        """Add counts[i] to the count of word words[i] in cluster
        clusters[i] (a scalar broadcasts); a pair given twice adds twice.
        Refuses with ValueError, adding nothing, a word id outside [0, V), a
        cluster outside [0, k_max) or a count outside int32, and, with the
        pairs before it added, a pair whose table is full or whose sum
        passes int32. In C (Kernel.add) when the kernel can be built, else
        in numpy (_add_counts); both leave the same tables."""
        words, clusters, counts = (np.ravel(a) for a in np.broadcast_arrays(
            *(np.asarray(a, dtype=np.int64) for a in (words, clusters, counts))))
        self._check_ids(words, clusters)
        if len(counts) and (counts.min() < ~_INT32_MAX
                            or counts.max() > _INT32_MAX):
            raise ValueError("counts must lie in int32")
        kernel = _native.kernel()
        if kernel is not None:
            return kernel.add(self, words, clusters, counts)
        self._add_counts(words, clusters, counts)

    def _add_counts(self, words, clusters, counts) -> None:
        """The reference for Kernel.add, with add_counts' arguments as int64
        arrays of one length: _sweep.c's add for each pair in turn. Refuses
        with ValueError, the pairs before it added, a pair whose table is
        full (a state sized for another corpus) or whose sum passes int32."""
        for w, z, c in zip(words.tolist(), clusters.tolist(), counts.tolist()):
            if not c:
                continue
            i = self._slot_of(w, z)
            if i < 0:
                raise ValueError(f"the count table of word {w} is full: the "
                                 "state was sized for another corpus")
            total = int(self.table[i, 1]) + c
            if not ~_INT32_MAX <= total <= _INT32_MAX:
                raise ValueError(f"a count passes int32: word {w}, cluster {z}")
            self.table[i] = z, total
            if not total:
                self._drop(w, i)

    def add_doc(self, d: int, words: np.ndarray, counts: np.ndarray,
                total: int, z: int) -> None:
        self.m[z] += 1
        self.n[z] += total
        self.add_counts(words, z, counts)
        self.assignments[d] = z

    def add_docs(self, csr, docs, clusters) -> None:
        """add_doc for many documents in one pass: document docs[i] of the
        corpus arrays csr joins cluster clusters[i]. docs must be distinct."""
        docs = np.asarray(docs, dtype=np.intp)
        clusters = np.asarray(clusters, dtype=np.int64)
        self.m += np.bincount(clusters, minlength=self.k_max)
        np.add.at(self.n, clusters, np.diff(csr.tok_ptr)[docs])
        of_doc = np.full(len(csr.word_ptr) - 1, -1, dtype=np.int64)
        of_doc[docs] = clusters
        word_z = np.repeat(of_doc, np.diff(csr.word_ptr))
        if len(docs) == len(of_doc):  # every document joins
            self.add_counts(csr.words, word_z, csr.counts)
        else:
            joined = word_z >= 0
            self.add_counts(csr.words[joined], word_z[joined],
                            csr.counts[joined])
        self.assignments[docs] = clusters

    def remove_doc(self, d: int, words: np.ndarray, counts: np.ndarray,
                   total: int) -> int:
        """Detach document d; returns the cluster it was in. assignments[d]
        is set to -1 until the document is re-added."""
        z = int(self.assignments[d])
        self.m[z] -= 1
        self.n[z] -= total
        self.add_counts(words, z, -np.asarray(counts, dtype=np.int64))
        self.assignments[d] = -1
        return z

    def fold(self, src: int, dst: int, words: np.ndarray | None = None) -> None:
        """Move cluster src into cluster dst and leave src empty: its
        document, token and word counts add into dst's, and its documents
        are relabeled dst by one scan of the assignments. words, distinct
        word ids, must hold every word src has a count for; None finds
        them by a scan of the tables. O(D + len(words)), or O(D + store)
        for None."""
        if words is None:
            words = self.cluster_cells(src)[0]
        moved = self.counts_of(words, src)
        words, moved = np.asarray(words)[moved != 0], moved[moved != 0]
        self.add_counts(np.concatenate((words, words)),
                        np.repeat([src, dst], len(words)),
                        np.concatenate((-moved, moved)))
        self.m[dst] += self.m[src]
        self.n[dst] += self.n[src]
        self.m[src] = 0
        self.n[src] = 0
        self.assignments[self.assignments == src] = dst

    def deactivate_cluster(self, z: int) -> None:
        """Remove an emptied cluster and keep indices contiguous by folding
        the last active cluster into its slot. O(store + D)."""
        if self.m[z] != 0 or self.n[z] != 0:
            raise InactiveCluster(f"cluster {z} is not empty")
        last = self.k_active - 1
        if z != last:
            self.fold(last, z)
        self.k_active = last

    def nonempty_count(self) -> int:
        return int(np.count_nonzero(self.m[: self.k_active]))

    def validate(self, require_nonempty: bool = False) -> None:
        """Exact integer consistency checks, in O(store + D + k_max);
        raises AssertionError on drift."""
        k = self.k_active
        assert int(self.m[:k].sum()) == self.D, "sum(m) != D"
        assert (self.m[k:] == 0).all() and (self.n[k:] == 0).all()
        assert (self.m >= 0).all()
        slots = np.flatnonzero(self.cell_z >= 0)
        clusters = self.cell_z[slots].astype(np.int64)
        counts = self.cell_n[slots]
        assert (clusters < k).all(), "count cell outside the active clusters"
        assert (counts > 0).all(), "count cell that is not positive"
        assert (self.cell_z >= -1).all(), "slot neither free nor a cell"
        assert not self.cell_n[self.cell_z < 0].any(), "free slot with a count"
        assert (np.bincount(clusters, weights=counts, minlength=k)
                == self.n[:k]).all(), "n != sum of counts"
        # each cell is the first its probe finds: reachable from its home
        # slot, and the only one of its cluster in its table
        assert (self._probe(self._slot_words(slots), clusters) == slots).all(), \
            "count cell off its probe run"
        active = self.assignments[self.assignments >= 0]
        assert (active < k).all(), "assignment outside active range"
        assert (np.bincount(active, minlength=k)[:k] == self.m[:k]).all(), \
            "m != documents assigned"
        if require_nonempty:
            assert (self.n[:k] > 0).all(), "active cluster with zero tokens"

    def _check_ids(self, words: np.ndarray, clusters: np.ndarray) -> None:
        """Refuse a word id outside [0, V) or a cluster outside [0, k_max),
        which the tables have no slot for."""
        if len(words) and not (
                0 <= words.min() <= words.max() < self.V
                and 0 <= clusters.min() <= clusters.max() < self.k_max):
            raise ValueError(f"word ids must lie in [0, {self.V}) and "
                             f"clusters in [0, {self.k_max})")

    def _check_active(self, z: int) -> None:
        if not 0 <= z < self.k_active:
            raise InactiveCluster(f"cluster {z} not in [0, {self.k_active})")

    # -- the tables, in numpy; _sweep.c's slot_of, add and drop ---------

    def _slot_words(self, slots: np.ndarray) -> np.ndarray:
        """The word whose table holds each slot."""
        return np.searchsorted(self.cell_ptr, slots, side="right") - 1

    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every cell as (words, clusters, counts), in slot order: words
        ascending, clusters in table order within a word."""
        slots = np.flatnonzero(self.cell_z >= 0)
        return self._slot_words(slots), self.cell_z[slots], self.cell_n[slots]

    def _probe(self, words: np.ndarray, clusters: np.ndarray) -> np.ndarray:
        """The slot of each cell (words[i], clusters[i]): the one holding it,
        or the free slot that ends its probe run, where it would go; -1 for
        a full table without it. All cells step together, one slot a
        round."""
        lo = self.cell_ptr[words]
        mask = self.cell_ptr[words + 1] - lo - 1
        at = clusters & mask
        found = np.full(len(words), -1, dtype=np.int64)
        todo = np.arange(len(words))
        for _ in range(int(mask.max(initial=0)) + 1):
            slots = lo[todo] + at[todo]
            key = self.cell_z[slots]
            done = (key < 0) | (key == clusters[todo])
            found[todo[done]] = slots[done]
            todo = todo[~done]
            if not len(todo):
                break
            at[todo] = (at[todo] + 1) & mask[todo]
        return found

    def _slot_of(self, w: int, z: int) -> int:
        """The slot of cell (w, z): the one holding it, or the free slot that
        ends its probe run, where it goes; -1 for a full table without it. A
        table with room for k_max cells holds z at its home or nowhere."""
        lo = int(self.cell_ptr[w])
        mask = int(self.cell_ptr[w + 1]) - lo - 1
        if mask >= self.k_max - 1:
            return lo + z
        cell_z = self.cell_z
        i = z & mask
        for _ in range(mask + 1):
            key = cell_z[lo + i]
            if key < 0 or key == z:
                return lo + i
            i = (i + 1) & mask
        return -1

    def _drop(self, w: int, slot: int) -> None:
        """Free slot, a cell of word w's table, by backward-shift deletion;
        it refuses nothing, so the caller names a held slot. Each later cell
        of the probe run that may move into the hole (its home is not
        cyclically after the hole) does, and the hole moves to where it was;
        in a table with room for k_max cells every cell stays at its home."""
        table = self.table
        lo = int(self.cell_ptr[w])
        mask = int(self.cell_ptr[w + 1]) - lo - 1
        hole = j = slot - lo
        for _ in range(mask if mask < self.k_max - 1 else 0):
            j = (j + 1) & mask
            key = int(table[lo + j, 0])
            if key < 0:
                break
            if ((j - (key & mask)) & mask) >= ((j - hole) & mask):
                table[lo + hole] = table[lo + j]
                hole = j
        table[lo + hole] = -1, 0


def _table_capacities(doc_freq, k_max: int) -> np.ndarray:
    """Each word's table capacity: the first power of two at or above
    min(2 * df, k_max), so 1 for a word in no document. Below k_max a table
    has room for twice the clusters its df documents can occupy; at k_max
    every cluster has a slot of its own, its home, so no two cells ever
    compete for one and no more room is needed."""
    need = np.minimum(2 * np.asarray(doc_freq, dtype=np.int64), k_max)
    return np.left_shift(1, np.frexp(np.maximum(need - 1, 0))[1].astype(np.int64))


def _table_offsets(v: int, k_max: int, doc_freq) -> np.ndarray:
    """cell_ptr: the read-only offsets of the v words' tables."""
    caps = _table_capacities(np.full(v, k_max) if doc_freq is None
                             else doc_freq, k_max)
    if caps.shape != (v,):
        raise ValueError(f"doc_freq covers {len(caps)} words, state has {v}")
    ptr = np.zeros(v + 1, dtype=np.int64)
    np.cumsum(caps, out=ptr[1:])
    ptr.flags.writeable = False
    return ptr


def prior_cluster_factor(state: ModelState, z: int, excluding_doc: int) -> float:
    """Cluster-size prior (m_excl + alpha) / (D - 1 + K*alpha).

    The membership of excluding_doc is simulated as removed if the state
    still contains it. K is the allotted capacity k_max, held fixed for the
    whole run; it shifts all clusters identically so sampled distributions
    are unaffected.
    """
    state._check_active(z)
    m = int(state.m[z])
    if state.assignments[excluding_doc] == z:
        m -= 1
    return (m + state.alpha) / (state.D - 1 + state.k_max * state.alpha)


def scored_slots(state: ModelState) -> tuple[np.ndarray, np.ndarray | None]:
    """The active clusters the kernel must score, and how to expand them.

    Returns (slots, row_of): every occupied cluster (m > 0 or n > 0) plus
    the lowest empty one, in index order, and the map from each active
    cluster to its row among the scored ones; every empty cluster maps to
    the representative's row, whose counts, and so whose score, it shares.
    row_of is None when no cluster is empty and slots covers them all.
    """
    k = state.k_active
    scored = (state.m[:k] > 0) | (state.n[:k] > 0)
    empty = np.flatnonzero(~scored)
    if not len(empty):
        return np.arange(k), None
    scored[empty[0]] = True
    slots = np.flatnonzero(scored)
    row_of = np.empty(k, dtype=np.intp)
    row_of[slots] = np.arange(len(slots))
    row_of[empty] = row_of[empty[0]]
    return slots, row_of


def cluster_log_scores(
    state: ModelState,
    words: np.ndarray,
    counts: np.ndarray,
    weights: WeightingScheme,
) -> np.ndarray:
    """Unnormalized log conditional of a document against every active
    cluster: the numpy reference for Kernel.log_scores, from the same
    arguments.

    The document, given as its distinct word ids and their counts, must
    already be excluded from the state. Entries are -inf exactly for empty
    clusters when alpha == 0; any other non-finite value signals a broken
    weighting and raises NonFiniteScore.
    """
    slots, row_of = scored_slots(state)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _slot_log_scores(state, *_tokens(words, counts, weights, state.V),
                                  slots)
    return scores if row_of is None else scores.take(row_of)


def _tokens(words, counts, weights: WeightingScheme, v: int):
    """np.repeat(words, counts), the tokens of distinct words with these
    counts; each token's pseudo-count plus its rank among its word's
    repeats; and the pseudo-counts' total. Over a corpus, document d's
    tokens are the slice tok_ptr[d]:tok_ptr[d + 1]."""
    cw, ctot = weights.pseudocounts(v)
    counts = np.asarray(counts, dtype=np.intp)
    word_rep = np.repeat(np.asarray(words, dtype=np.intp), counts)
    return word_rep, cw[word_rep] + occurrences(counts), ctot


def _slot_log_scores(state, word_rep, offsets, ctot, slots):
    """Scores of the clusters slots of a document given as _tokens gives
    it. Run under np.errstate(divide="ignore", invalid="ignore")."""
    m = state.m[slots]
    scores = np.log(m + state.alpha)
    if len(word_rep):
        # (slots x words) in column-major order: numpy then sums each row
        # word by word, the order a dense cluster-major gather
        # (nzw[:, word_rep]) sums in, whichever slots are scored
        counts = _token_rows(state, word_rep).take(slots, axis=1).T
        scores = scores + np.log(counts + offsets[None, :]).sum(axis=1)
        scores -= np.log(state.n[slots][:, None] + ctot + np.arange(
            len(word_rep), dtype=np.float64)[None, :]).sum(axis=1)
    bad = ~np.isfinite(scores)
    if bad.any() and not ((scores[bad] == -np.inf) & (m[bad] == 0)).all():
        raise NonFiniteScore(
            f"non-finite score for clusters {slots[bad].tolist()}; "
            "check that all pseudo-counts are strictly positive"
        )
    return scores


def _token_rows(state: ModelState, word_rep: np.ndarray) -> np.ndarray:
    """The counts of each token's word in the active clusters, a C-ordered
    (tokens, k_active) int32 block scattered from the words' tables."""
    lo = state.cell_ptr[word_rep]
    caps = state.cell_ptr[word_rep + 1] - lo
    ends = np.cumsum(caps)
    slots = np.arange(int(ends[-1]) if len(ends) else 0) \
        + np.repeat(lo - ends + caps, caps)
    row = np.repeat(np.arange(len(word_rep)), caps)
    z = state.cell_z[slots]
    taken = z >= 0
    block = np.zeros((len(word_rep), state.k_active), dtype=np.int32)
    block[row[taken], z[taken]] = state.cell_n[slots[taken]]
    return block


def doc_cluster_log_score(
    doc: Document,
    z: int,
    state: ModelState,
    weights: WeightingScheme,
) -> float:
    """Scalar log score of one document against one cluster.

    Reference form of the conditional kernel: exp of it equals the
    Dirichlet-normalizer ratio times (m + alpha). The document's counts
    must already be excluded from cluster z.
    """
    state._check_active(z)
    cw, ctot = weights.pseudocounts(state.V)
    score = -math.inf if state.m[z] == 0 and state.alpha == 0 else \
        math.log(state.m[z] + state.alpha)
    for w, c in doc.counts.items():
        count = int(state.counts_of(w, z)[0])
        base = count + cw[w]
        for j in range(c):
            arg = base + j
            if arg <= 0:
                raise NonFiniteScore(
                    f"word {w}: log argument {arg} <= 0 (pseudo-count "
                    f"{cw[w]}, count {count})"
                )
            score += math.log(arg)
    for i in range(doc.total_len):
        arg = state.n[z] + ctot + i
        if arg <= 0:
            raise NonFiniteScore(f"cluster total: log argument {arg} <= 0")
        score -= math.log(arg)
    return score


def conditional_distribution(
    doc: Document,
    state: ModelState,
    weights: WeightingScheme,
) -> np.ndarray:
    """Normalized conditional over active clusters (max-subtracted softmax).

    The document's counts must already be excluded from its cluster.
    """
    return normalize_log_scores(cluster_log_scores(
        state, list(doc.counts), list(doc.counts.values()), weights))


def relative_weights(scores: np.ndarray) -> np.ndarray:
    """exp(scores - max score): the conditional up to its normalizer, the
    largest weight exactly 1."""
    top = scores.max()
    if top == -np.inf:
        raise NonFiniteScore("every active cluster has zero probability")
    return np.exp(scores - top)


def normalize_log_scores(scores: np.ndarray) -> np.ndarray:
    p = relative_weights(scores)
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise NonFiniteScore(f"degenerate normalizer {total}")
    return p / total


def word_entropy(
    state: ModelState,
    epsilon: float = 1e-9,
    normalized: bool = True,
) -> EntropyTable:
    """Entropy of each word's distribution over the active clusters.

    p_k(w) is the epsilon-smoothed share of word w's occurrences in cluster
    k. Words spread evenly across clusters score high; words concentrated
    in one cluster score near zero. With normalized on, values are divided
    by log(k_active) so the table lies in [0, 1]. A word with equal counts
    in every cluster gets the exact maximum; a lone active cluster defines
    the whole table as ones.

    Only the nonzero counts are visited. With S_w the word's total count
    plus k * epsilon, each of its k - nnz_w zero counts has the smoothed
    share epsilon / S_w, so together they contribute one closed-form term,
    (k - nnz_w) * (epsilon / S_w) * log(epsilon / S_w).

    The nonzero cells are read from the count tables, O(entries + V): in
    one C pass (Kernel.cells) when the kernel can be built, else by
    _nonzero_cells, its numpy reference. Both give the same cells in the
    same order, and the arithmetic on them is numpy's on both paths, so the
    table is the same to the last bit.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    k = state.k_active
    if k < 1:
        raise InactiveCluster("no active clusters")
    if k == 1:
        # degenerate but reachable mid-run; an all-ones table keeps the
        # conditional well-defined and is maximally uninformative
        h = np.ones(state.V, dtype=np.float64)
    else:
        # the nonzero counts, word-major, so words ascend
        kernel = _native.kernel()
        words, _, nz = (_nonzero_cells if kernel is None else kernel.cells)(state)
        nnz = np.bincount(words, minlength=state.V)
        s_w = np.bincount(words, weights=nz, minlength=state.V) + k * epsilon
        p = (nz + epsilon) / s_w[words]
        q = epsilon / s_w
        h = (nnz - k) * q * np.log(q)
        h -= np.bincount(words, weights=p * np.log(p), minlength=state.V)
        top = math.log(k)
        # a word with equal counts everywhere is exactly uniform after
        # smoothing; pin it to the exact maximum instead of 1 +/- ulps.
        # Each word's cells are a run of the listing, a full word's k long
        uniform = nnz == 0
        full = np.flatnonzero(nnz == k)
        if len(full):
            first = np.searchsorted(words, full)
            spread = nz[first[:, None] + np.arange(k)]
            uniform[full] = spread.min(axis=1) == spread.max(axis=1)
        uniform = np.flatnonzero(uniform)  # indexes faster than the mask
        h[uniform] = top
        np.clip(h, None, top, out=h)
        if normalized:
            h = h / top
            h[uniform] = 1.0
    return EntropyTable(h)


def _nonzero_cells(state: ModelState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero counts, from one scan of the count tables, as (words,
    clusters, counts): word-major, with clusters ascending within a word.
    The reference for Kernel.cells, with its argument and result."""
    words, clusters, counts = state._cells()
    order = np.argsort(words * state.k_max + clusters)
    return words[order], clusters[order].astype(np.int64), counts[order]


def posterior_phi(state: ModelState, z: int, beta: float) -> np.ndarray:
    """Posterior mean word distribution of a cluster: (count + beta) over
    (total + V*beta)."""
    state._check_active(z)
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    words, counts = state.cluster_cells(z)
    row = np.zeros(state.V, dtype=np.float64)
    row[words] = counts
    return (row + beta) / (state.n[z] + state.V * beta)


def top_words(
    state: ModelState,
    vocab: Vocabulary,
    z: int,
    n: int,
    beta: float,
) -> list[tuple[str, float]]:
    """Most representative words of a cluster, highest posterior mass first.

    Ties break toward the lower word id.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phi = posterior_phi(state, z, beta)
    order = np.lexsort((np.arange(len(phi)), -phi))[:n]
    return [(vocab.id_to_word[w], float(phi[w])) for w in order]
