"""Core probabilistic kernels for the Dirichlet multinomial mixture.

The collapsed conditional for a document choosing a cluster factorizes into
a cluster-size prior (m_z + alpha, up to a constant denominator) and a
word-match term: a rising product (n + c_w)(n + c_w + 1)... per word over a
matching product on cluster totals. c_w is either a uniform pseudo-count
beta or a per-word entropy value. All evaluation is in log space; the
z-constant denominator D - 1 + K*alpha is omitted from scores and only
reappears in the standalone prior factor.

Per-word counts are stored word-major, one (V, k_max) int32 matrix, so the
counts of one word across all clusters are a contiguous row. Every empty
cluster has the same conditional, so the kernel scores the occupied
clusters plus one representative empty cluster and spreads that score over
the rest (the smoothing-only bucket of SparseLDA, Yao, Mimno & McCallum,
KDD 2009): per document the work scales with the live cluster count, not
with k_max. The compiled kernel takes that rule one step further when a
document has many slots: a cluster that shares no word with the document
has a score that depends on its (m, n) alone, so it scores one cluster per
distinct (m, n) and reads counts only where per-word occupancy bitmaps say
they are non-zero; the representative empty cluster is then the (0, 0)
case of that rule.

The numpy kernels here are the reference. Sampling runs the compiled sweep
kernel (_sweep.c, loaded by _native) when it can be built; it scores the
same slots in product form, and the tests hold its scores to these within
1e-9 and its draws to the numpy reference steps' exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .corpus import Corpus, Document, TokenCSR, Vocabulary
from .errors import ConfigError, InactiveCluster, NonFiniteScore

__all__ = [
    "ClusterStats",
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
class ClusterStats:
    """Read-only snapshot of one cluster: document count, token count, and
    sparse per-word token counts."""

    m: int
    n: int
    word_counts: dict[int, int]


@dataclass(frozen=True)
class UniformBeta:
    """Uniform per-word pseudo-count."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class EntropyTable:
    """Per-word pseudo-counts derived from word entropy across clusters.

    h[w] is strictly positive for epsilon > 0 and lies in [0, 1] when
    normalized (division by log of the cluster count).
    """

    h: np.ndarray
    sum_h: float
    epsilon: float
    normalized: bool

    def __post_init__(self):
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if len(self.h) and not self.h.min() > 0:
            raise ValueError("entropy table must be strictly positive")
        if not math.isclose(self.sum_h, float(self.h.sum()), rel_tol=1e-9):
            raise ValueError("sum_h inconsistent with table")


WeightingScheme = Union[UniformBeta, EntropyTable]


def _pseudocounts(weights: WeightingScheme, v: int):
    """Return (per-word pseudo-count lookup, total over the vocabulary)."""
    if isinstance(weights, UniformBeta):
        return weights.beta, v * weights.beta
    if len(weights.h) != v:
        raise ValueError(f"entropy table covers {len(weights.h)} words, state has {v}")
    return weights.h, weights.sum_h


def check_token_total(tokens: int) -> None:
    """A per-word count can reach the corpus token total, so a total beyond
    int32, the dtype of the count matrix, is refused up front."""
    if tokens > np.iinfo(np.int32).max:
        raise ConfigError(
            f"corpus has {tokens} tokens; the int32 count matrix holds "
            f"at most {np.iinfo(np.int32).max}"
        )


class ModelState:
    """Mutable sufficient statistics: the sole object the sampler writes.

    Clusters live in slots [0, k_active) of fixed-capacity arrays. m[z] is
    the document count, n[z] the token count, wz[w, z] the per-word token
    count, stored word-major as int32; nzw is its cluster-major (k_max, V)
    view. Cluster membership lives only in the assignment array; pruning
    and merging relabel a cluster's documents by scanning it.
    """

    def __init__(self, n_docs: int, vocab_size: int, k_max: int, alpha: float,
                 k_active: int | None = None):
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.D = n_docs
        self.V = vocab_size
        self.k_max = k_max
        self.k_active = k_max if k_active is None else k_active
        self.alpha = float(alpha)
        self.m = np.zeros(k_max, dtype=np.int64)
        self.n = np.zeros(k_max, dtype=np.int64)
        self.wz = np.zeros((vocab_size, k_max), dtype=np.int32)
        self.assignments = np.full(n_docs, -1, dtype=np.int64)

    @classmethod
    def for_corpus(cls, corpus: Corpus, k_max: int, alpha: float) -> "ModelState":
        """Empty state sized for a corpus; see check_token_total."""
        check_token_total(int(corpus.token_csr.tok_ptr[-1]))
        return cls(len(corpus), corpus.vocabulary.size, k_max, alpha)

    @property
    def nzw(self) -> np.ndarray:
        """Cluster-major (k_max, V) view of the word-major counts. The
        package reads wz; perfbench still reads this (ROADMAP item 1)."""
        return self.wz.T

    def copy(self) -> "ModelState":
        dup = ModelState.__new__(ModelState)
        dup.D, dup.V, dup.k_max = self.D, self.V, self.k_max
        dup.k_active, dup.alpha = self.k_active, self.alpha
        dup.m = self.m.copy()
        dup.n = self.n.copy()
        dup.wz = self.wz.copy()
        dup.assignments = self.assignments.copy()
        return dup

    def add_doc(self, d: int, words: np.ndarray, counts: np.ndarray,
                total: int, z: int) -> None:
        self.m[z] += 1
        self.n[z] += total
        self.wz[:, z][words] += counts
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
        joined = word_z >= 0
        np.add.at(self.wz.reshape(-1),
                  csr.words[joined] * self.k_max + word_z[joined],
                  csr.counts[joined])
        self.assignments[docs] = clusters

    def remove_doc(self, d: int, words: np.ndarray, counts: np.ndarray,
                   total: int) -> int:
        """Detach document d; returns the cluster it was in. assignments[d]
        is set to -1 until the document is re-added."""
        z = int(self.assignments[d])
        self.m[z] -= 1
        self.n[z] -= total
        self.wz[:, z][words] -= counts
        self.assignments[d] = -1
        return z

    def deactivate_cluster(self, z: int) -> None:
        """Remove an emptied cluster and keep indices contiguous by moving
        the last active cluster into its slot. O(V + D)."""
        last = self.k_active - 1
        if self.m[z] != 0 or self.n[z] != 0:
            raise InactiveCluster(f"cluster {z} is not empty")
        if z != last:
            self.m[z] = self.m[last]
            self.n[z] = self.n[last]
            self.wz[:, z] = self.wz[:, last]
            self.assignments[np.flatnonzero(self.assignments == last)] = z
        self.m[last] = 0
        self.n[last] = 0
        self.wz[:, last] = 0
        self.k_active = last

    def cluster_stats(self, z: int) -> ClusterStats:
        self._check_active(z)
        row = self.wz[:, z]
        ids = np.flatnonzero(row)
        return ClusterStats(
            m=int(self.m[z]),
            n=int(self.n[z]),
            word_counts={int(w): int(row[w]) for w in ids},
        )

    def nonempty_count(self) -> int:
        return int(np.count_nonzero(self.m[: self.k_active]))

    def validate(self, require_nonempty: bool = False) -> None:
        """Exact integer consistency checks; raises AssertionError on drift."""
        k = self.k_active
        assert int(self.m[:k].sum()) == self.D, "sum(m) != D"
        assert (self.wz[:, :k].sum(axis=0) == self.n[:k]).all(), "n != sum(wz)"
        assert (self.m[k:] == 0).all() and (self.n[k:] == 0).all()
        assert (self.wz >= 0).all() and (self.m >= 0).all()
        active = self.assignments[self.assignments >= 0]
        assert (active < k).all(), "assignment outside active range"
        assert (np.bincount(active, minlength=k)[:k] == self.m[:k]).all(), \
            "m != documents assigned"
        if require_nonempty:
            assert (self.n[:k] > 0).all(), "active cluster with zero tokens"

    def _check_active(self, z: int) -> None:
        if not 0 <= z < self.k_active:
            raise InactiveCluster(f"cluster {z} not in [0, {self.k_active})")


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
    word_rep: np.ndarray,
    occ_offset: np.ndarray,
    total: int,
    weights: WeightingScheme,
    clusters: np.ndarray | None = None,
) -> np.ndarray:
    """Unnormalized log conditional, vectorized.

    The document's counts must already be excluded from the state. Passing
    an index array (the slots from scored_slots) scores exactly those
    clusters, one entry each. Without it the kernel finds the scored slots
    itself and returns one entry per active cluster. Entries are -inf
    exactly for empty clusters when alpha == 0; any other non-finite value
    signals a broken weighting and raises NonFiniteScore.
    """
    if clusters is not None:
        return _slot_log_scores(state, word_rep, occ_offset, total, weights,
                                clusters)
    slots, row_of = scored_slots(state)
    scores = _slot_log_scores(state, word_rep, occ_offset, total, weights, slots)
    return scores if row_of is None else scores.take(row_of)


def _slot_log_scores(state, word_rep, occ_offset, total, weights, slots):
    m = state.m[slots]
    n = state.n[slots]
    cw, ctot = _pseudocounts(weights, state.V)
    if isinstance(weights, UniformBeta):
        add = cw + occ_offset
    else:
        add = cw[word_rep] + occ_offset
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.log(m + state.alpha)
        if total:
            # (slots x words) in column-major order: numpy then sums each
            # row word by word, the order a dense cluster-major gather
            # (nzw[:, word_rep]) sums in, whichever slots are scored
            counts = state.wz.take(word_rep, axis=0).take(slots, axis=1).T
            scores = scores + np.log(counts + add[None, :]).sum(axis=1)
            scores -= np.log(
                n[:, None] + ctot + np.arange(total, dtype=np.float64)[None, :]
            ).sum(axis=1)
    bad = ~np.isfinite(scores)
    if bad.any() and not ((scores[bad] == -np.inf) & (m[bad] == 0)).all():
        raise NonFiniteScore(
            f"non-finite score for clusters {slots[bad].tolist()}; "
            "check that all pseudo-counts are strictly positive"
        )
    return scores


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
    cw, ctot = _pseudocounts(weights, state.V)
    uniform = isinstance(weights, UniformBeta)
    score = -math.inf if state.m[z] == 0 and state.alpha == 0 else \
        math.log(state.m[z] + state.alpha)
    for w, c in doc.counts.items():
        base = state.wz[w, z] + (cw if uniform else cw[w])
        for j in range(c):
            arg = base + j
            if arg <= 0:
                raise NonFiniteScore(
                    f"word {w}: log argument {arg} <= 0 (pseudo-count "
                    f"{cw if uniform else cw[w]}, count {state.wz[w, z]})"
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
    csr = TokenCSR.from_rows([doc.counts], [doc.counts.values()], [doc.total_len])
    scores = cluster_log_scores(state, csr.word_rep, csr.occ, doc.total_len, weights)
    return normalize_log_scores(scores)


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
    csr: TokenCSR | None = None,
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

    Given the corpus arrays the state counts (csr, a TokenCSR), the nonzero
    cells are found from the corpus: they are the cells (w, assignments[d])
    of the attached documents' entries, so finding them costs O(entries),
    not a scan of the V x k count matrix. A detached document (assignment
    -1) adds none. Without csr the matrix is scanned; both give the same
    cells in the same order, so the same table to the last bit.
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
        counts = state.wz[:, :k]
        # flat positions of the nonzero counts, word-major, so words ascend
        if csr is None:
            flat = np.flatnonzero(counts != 0)
        else:
            flat = _occupied_cells(state, csr)
        words = flat // k
        nz = counts[words, flat - words * k]
        if csr is not None:  # an entry with count 0 occupies no cell
            words, nz = words[nz != 0], nz[nz != 0]
        nnz = np.bincount(words, minlength=state.V)
        s_w = np.bincount(words, weights=nz, minlength=state.V) + k * epsilon
        p = (nz + epsilon) / s_w[words]
        q = epsilon / s_w
        h = (nnz - k) * q * np.log(q)
        h -= np.bincount(words, weights=p * np.log(p), minlength=state.V)
        top = math.log(k)
        # a word with equal counts everywhere is exactly uniform after
        # smoothing; pin it to the exact maximum instead of 1 +/- ulps
        uniform = nnz == 0
        full = np.flatnonzero(nnz == k)
        spread = counts[full]
        uniform[full] = spread.min(axis=1) == spread.max(axis=1)
        h[uniform] = top
        np.clip(h, None, top, out=h)
        if normalized:
            h = h / top
            h[uniform] = 1.0
    return EntropyTable(h=h, sum_h=float(h.sum()), epsilon=epsilon,
                        normalized=normalized)


def _occupied_cells(state: ModelState, csr: TokenCSR) -> np.ndarray:
    """Ascending distinct keys w * k_active + z of the cells the attached
    documents' entries occupy."""
    z = state.assignments[csr.entry_doc]
    attached = z >= 0
    return _distinct_sorted(csr.words[attached] * state.k_active + z[attached])


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending; sorts keys in
    place. A sort and a neighbour compare: np.unique gives the same about
    twenty times more slowly on 50k keys."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def posterior_phi(state: ModelState, z: int, beta: float) -> np.ndarray:
    """Posterior mean word distribution of a cluster: (count + beta) over
    (total + V*beta)."""
    state._check_active(z)
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    row = state.wz[:, z].astype(np.float64)
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
