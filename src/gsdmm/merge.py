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
from .model import ModelState

__all__ = [
    "TfIcfVector",
    "MergeLog",
    "compute_icf",
    "tficf_vector",
    "cosine",
    "merge_to_k",
]


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending; sorts keys in
    place. A sort and a neighbour compare: np.unique gives the same about
    twenty times more slowly on 50k keys."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


@dataclass(frozen=True)
class TfIcfVector:
    """Sparse non-negative term-weight vector with its cached norm."""

    weights: dict[int, float]
    norm: float


MergeLog = list  # ordered (a, b, similarity) tuples


def compute_icf(state: ModelState) -> np.ndarray:
    """Inverse cluster frequency per word: 1 + log((1 + K) / (1 + cf)),
    natural log, where cf counts active clusters containing the word."""
    return _icf(np.bincount(state._cells()[0], minlength=state.V),
                state.k_active)


def tficf_vector(state: ModelState, z: int, icf: np.ndarray) -> TfIcfVector:
    """Term weights of one cluster: within-cluster relative frequency times
    the fixed icf table. Relative frequency keeps proportional clusters
    identical regardless of size."""
    state._check_active(z)
    total = int(state.n[z])
    if total == 0:
        raise EmptyCluster(f"cluster {z} has no tokens")
    ids, counts = state.cluster_cells(z)
    x = counts / total * icf[ids]
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

    The count tables are scanned once, for the nonzero cells; after that
    each cluster is its list of words, and a merge folds only the merged
    cluster's cells into the survivor (ModelState.fold). One matrix
    product approximates every pair's cosine, over the words in two or
    more clusters (no other word adds to a dot product, and merging never
    spreads a word to more clusters). Each step then re-scores with
    cosine, exactly rounded, every pair whose approximation lies within
    twice the rounding bound of the best one (see _cosine_error), and
    takes the best of those: no other pair can reach it, so the pair, its
    similarity and the log are exactly those of scoring every pair with
    cosine.
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

    # the nonzero cells, word-major, so that words ascend in each cluster
    rows, cols, nz = state._cells()
    cf = np.bincount(rows, minlength=state.V)
    icf = _icf(cf, k)
    x = nz / state.n[cols] * icf[rows]
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

        state.fold(b, a, cells[b])
        alive[b] = False
        cells[a] = words = _distinct_sorted(np.concatenate((cells[a], cells[b])))
        xs[a] = state.counts_of(words, a) / state.n[a] * icf[words]
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

    # compaction, in surviving-id order: each survivor's new slot is one
    # merged away or one an earlier survivor has left, so it is empty
    for slot, z in enumerate(np.flatnonzero(alive).tolist()):
        if slot != z:
            state.fold(z, slot, cells[z])
    state.k_active = k_real
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
