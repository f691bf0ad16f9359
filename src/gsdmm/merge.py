"""Granularity adjustment: merge the most similar clusters down to a target.

Clusters are represented by term-frequency times inverse-cluster-frequency
vectors (the cluster is treated as one large document), and the pair of
highest cosine similarity merges first. The inverse-cluster-frequency table
is computed once from the pre-merge clustering and held fixed, so existing
vectors stay valid while merging. merge_to_k keeps every cluster as its
nonzero cells and chooses each pair exactly from approximate cosines of all
pairs and exact re-scores of the few near the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, KRealOutOfRange, ZeroNorm
from .model import ModelState, _distinct_sorted

__all__ = [
    "TfIcfVector",
    "MergeCandidate",
    "MergeLog",
    "compute_icf",
    "tficf_vector",
    "cosine",
    "merge_to_k",
]


@dataclass(frozen=True)
class TfIcfVector:
    """Sparse non-negative term-weight vector with its cached norm."""

    weights: dict[int, float]
    norm: float


@dataclass(frozen=True)
class MergeCandidate:
    """A cluster pair queued by a heap-ordered merge, stale once either
    cluster's stamp moves on."""

    a: int
    b: int
    similarity: float
    stamp_a: int
    stamp_b: int

    def valid(self, alive: set[int], stamps: dict[int, int]) -> bool:
        return (self.a in alive and self.b in alive
                and stamps[self.a] == self.stamp_a
                and stamps[self.b] == self.stamp_b)


MergeLog = list  # ordered (a, b, similarity) tuples


def compute_icf(state: ModelState) -> np.ndarray:
    """Inverse cluster frequency per word: 1 + log((1 + K) / (1 + cf)),
    natural log, where cf counts active clusters containing the word."""
    k = state.k_active
    return _icf(np.count_nonzero(state.wz[:, :k], axis=1), k)


def tficf_vector(state: ModelState, z: int, icf: np.ndarray) -> TfIcfVector:
    """Term weights of one cluster: within-cluster relative frequency times
    the fixed icf table. Relative frequency keeps proportional clusters
    identical regardless of size."""
    state._check_active(z)
    total = int(state.n[z])
    if total == 0:
        raise EmptyCluster(f"cluster {z} has no tokens")
    return _tficf_from_counts(state.wz[:, z], total, icf)


def _tficf_from_counts(row: np.ndarray, total: int, icf: np.ndarray) -> TfIcfVector:
    ids = np.flatnonzero(row)
    x = row[ids] / total * icf[ids]
    return TfIcfVector(weights=dict(zip(ids.tolist(), x.tolist())), norm=_norm(x))


def cosine(u: TfIcfVector, v: TfIcfVector) -> float:
    """Cosine similarity of two weight vectors, clamped into [0, 1]."""
    if u.norm <= 0 or v.norm <= 0:
        raise ZeroNorm("cosine undefined for zero-norm vectors")
    small, big = (u.weights, v.weights) if len(u.weights) <= len(v.weights) \
        else (v.weights, u.weights)
    # fsum is exactly rounded, so the result is independent of iteration
    # order and cosine is exactly symmetric
    dot = math.fsum(w * big[t] for t, w in small.items() if t in big)
    return min(1.0, max(0.0, dot / (u.norm * v.norm)))


def merge_to_k(state: ModelState, k_real: int) -> MergeLog:
    """Greedily merge the most similar pair until k_real clusters remain.

    Raw counts add, merged documents take the surviving (smaller) cluster
    id, and the merged cluster's vector is rebuilt from the summed counts
    with the initial icf. On equal similarity the lexicographically
    smallest (a, b) pair wins. Afterwards indices are compacted to
    0..k_real-1 in surviving-id order. Returns the ordered merge log with
    pre-compaction ids.

    The count matrix is scanned once, for the nonzero cells; after that
    each cluster is its list of words, and a merge moves only the merged
    cluster's cells. One matrix product approximates every pair's cosine,
    over the words in two or more clusters (no other word adds to a dot
    product, and merging never spreads a word to more clusters). Each
    step then re-scores with cosine, exactly rounded, every pair whose
    approximation lies within twice the rounding bound of the best one
    (see _cosine_error), and takes the best of those: no other pair can
    reach it, so the pair, its similarity and the log are exactly those of
    scoring every pair with cosine.
    """
    if not 1 <= k_real <= state.k_active:
        raise KRealOutOfRange(
            f"need 1 <= k_real <= {state.k_active}, got {k_real}"
        )
    log: MergeLog = []
    k = state.k_active
    if k_real == k:
        return log
    empty = np.flatnonzero(state.n[:k] == 0)
    if len(empty):
        raise EmptyCluster(f"cluster {int(empty[0])} has no tokens")

    counts = state.wz[:, :k]
    # the nonzero cells, word-major, so that words ascend in each cluster
    flat = np.flatnonzero(counts != 0)
    rows = flat // k
    cols = flat - rows * k
    cf = np.bincount(rows, minlength=state.V)
    icf = _icf(cf, k)
    x = counts[rows, cols] / state.n[cols] * icf[rows]
    # each cluster's words, ascending, and their weights
    order = np.argsort(cols, kind="stable")
    bounds = np.searchsorted(cols[order], np.arange(k + 1)).tolist()
    cells = [rows[order[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    xs = [x[order[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]
    norms = np.array([_norm(xz) for xz in xs])

    # approximate cosines from the weights of the shared words, held
    # word-major; upper triangle only, -inf marks no pair
    shared = cf >= 2
    row_of = np.cumsum(shared) - 1
    dense = np.zeros((int(shared.sum()), k))
    keep = shared[rows]
    dense[row_of[rows[keep]], cols[keep]] = x[keep]
    approx = np.clip(dense.T @ dense / np.outer(norms, norms), 0.0, 1.0)
    approx[np.tril_indices(k)] = -np.inf
    margin = 2 * _cosine_error(len(dense))
    exact = np.full((k, k), np.nan)
    vectors: dict[int, TfIcfVector] = {}

    def vector(z: int) -> TfIcfVector:
        if z not in vectors:
            vectors[z] = TfIcfVector(
                weights=dict(zip(cells[z].tolist(), xs[z].tolist())),
                norm=float(norms[z]))
        return vectors[z]

    label = np.arange(k)
    alive = np.ones(k, dtype=bool)
    for _ in range(k - k_real):
        top = approx.max(axis=1)
        bar = top.max() - margin
        near = np.flatnonzero(top >= bar)
        pa, pb = np.nonzero(approx[near] >= bar)
        pa = near[pa]  # pairs (a, b) ascending
        for i, j in zip(pa.tolist(), pb.tolist()):
            if math.isnan(exact[i, j]):
                exact[i, j] = cosine(vector(i), vector(j))
        best = int(np.argmax(exact[pa, pb]))  # the first of equal ones
        a, b = int(pa[best]), int(pb[best])
        log.append((a, b, float(exact[a, b])))

        state.m[a] += state.m[b]
        state.n[a] += state.n[b]
        moved = cells[b]
        state.wz[moved, a] += state.wz[moved, b]
        state.wz[moved, b] = 0
        state.m[b] = 0
        state.n[b] = 0
        label[label == b] = a
        alive[b] = False
        cells[a] = words = _distinct_sorted(np.concatenate((cells[a], moved)))
        xs[a] = state.wz[words, a] / state.n[a] * icf[words]
        norms[a] = _norm(xs[a])
        vectors.pop(a, None)
        vectors.pop(b, None)

        # a's words include all it had, so this overwrites every old weight
        # of a; its dot products need only the rows of its shared words
        keep = shared[words]
        at = row_of[words[keep]]
        dense[at, a] = xs[a][keep]
        row = np.clip(dense[at, a] @ dense[at] / (norms * norms[a]), 0.0, 1.0)
        row[~alive] = -np.inf
        approx[:a, a] = row[:a]
        approx[a, a + 1:] = row[a + 1:]
        approx[b, :] = approx[:, b] = -np.inf
        exact[a, :] = exact[:, a] = np.nan

    _compact(state, np.flatnonzero(alive).tolist(), cells, label)
    return log


def _icf(cf: np.ndarray, k: int) -> np.ndarray:
    return 1.0 + np.log((1.0 + k) / (1.0 + cf))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm from the exactly rounded sum of squares."""
    return math.sqrt(math.fsum((x * x).tolist()))


def _cosine_error(n: int) -> float:
    """A bound on |approximate - exact| cosine for weight vectors of n
    shared words.

    The weights are non-negative, so a dot product summed in any order,
    with or without fused multiply-adds, lies within gamma_n = n u / (1 - n u)
    of the exact one, relative (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1); cosine's exactly rounded sum of rounded products lies
    within gamma_2. By Cauchy-Schwarz the exact dot product is at most the
    product of the norms, which are within a few u of their computed values,
    and each side then rounds once in the division. 16 u covers the norms
    and the divisions with room to spare; a wider bound only re-scores more
    pairs.
    """
    u = np.finfo(np.float64).eps / 2
    return n * u / (1 - n * u) + 2 * u / (1 - 2 * u) + 16 * u


def _compact(state: ModelState, survivors: list[int], cells: list[np.ndarray],
             label: np.ndarray) -> None:
    """Move surviving clusters into slots 0..len-1, preserving id order, and
    relabel every document: cluster z merged into label[z]. Only a moved
    cluster's cells are copied; its new slot's column is already zero."""
    slot_of = np.full(len(label), -1, dtype=np.int64)
    for slot, z in enumerate(survivors):
        slot_of[z] = slot
        if slot == z:
            continue
        state.m[slot] = state.m[z]
        state.n[slot] = state.n[z]
        state.wz[cells[z], slot] = state.wz[cells[z], z]
        state.m[z] = 0
        state.n[z] = 0
        state.wz[cells[z], z] = 0
    attached = state.assignments >= 0
    state.assignments[attached] = slot_of[label[state.assignments[attached]]]
    state.k_active = len(survivors)
