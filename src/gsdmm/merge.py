"""Granularity adjustment: merge the most similar clusters down to a target.

Clusters are represented by term-frequency times inverse-cluster-frequency
vectors (the cluster is treated as one large document). Pairs live in a
max-heap keyed by cosine similarity; version stamps lazily invalidate pairs
whose clusters have since been merged. The inverse-cluster-frequency table
is computed once from the pre-merge clustering and held fixed, so existing
vectors stay valid while merging.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCluster, KRealOutOfRange, ZeroNorm
from .model import ModelState

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
    """Queued cluster pair; stale once either cluster's stamp moves on."""

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
    cf = np.count_nonzero(state.wz[:, :k], axis=1)
    return 1.0 + np.log((1.0 + k) / (1.0 + cf))


def tficf_vector(state: ModelState, z: int, icf: np.ndarray) -> TfIcfVector:
    """Term weights of one cluster: within-cluster relative frequency times
    the fixed icf table. Relative frequency keeps proportional clusters
    identical regardless of size."""
    state._check_active(z)
    total = int(state.n[z])
    if total == 0:
        raise EmptyCluster(f"cluster {z} has no tokens")
    return _tficf_from_counts(state.nzw[z], total, icf)


def _tficf_from_counts(row: np.ndarray, total: int, icf: np.ndarray) -> TfIcfVector:
    ids = np.flatnonzero(row)
    weights = dict(zip(ids.tolist(), (row[ids] / total * icf[ids]).tolist()))
    norm = math.sqrt(math.fsum(x * x for x in weights.values()))
    return TfIcfVector(weights=weights, norm=norm)


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
    """
    if not 1 <= k_real <= state.k_active:
        raise KRealOutOfRange(
            f"need 1 <= k_real <= {state.k_active}, got {k_real}"
        )
    log: MergeLog = []
    if k_real == state.k_active:
        return log

    icf = compute_icf(state)
    alive = list(range(state.k_active))
    vectors = {z: tficf_vector(state, z, icf) for z in alive}
    stamps = {z: 0 for z in alive}

    # heap orders by (-similarity, a, b): highest similarity first, then the
    # lexicographically smallest pair
    heap: list[tuple[float, int, int, int, int]] = []
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            sim = cosine(vectors[a], vectors[b])
            heap.append((-sim, a, b, 0, 0))
    heapq.heapify(heap)

    remaining = len(alive)
    alive_set = set(alive)
    while remaining > k_real:
        if not heap:
            raise KRealOutOfRange("priority queue exhausted before reaching k_real")
        neg_sim, a, b, sa, sb = heapq.heappop(heap)
        cand = MergeCandidate(a=a, b=b, similarity=-neg_sim,
                              stamp_a=sa, stamp_b=sb)
        if not cand.valid(alive_set, stamps):
            continue
        state.m[a] += state.m[b]
        state.n[a] += state.n[b]
        state.nzw[a] += state.nzw[b]
        state.assignments[np.flatnonzero(state.assignments == b)] = a
        state.m[b] = 0
        state.n[b] = 0
        state.nzw[b] = 0
        alive_set.discard(b)
        del vectors[b], stamps[b]
        stamps[a] += 1
        vectors[a] = _tficf_from_counts(state.nzw[a], int(state.n[a]), icf)
        log.append((a, b, -neg_sim))
        remaining -= 1
        for other in alive_set:
            if other == a:
                continue
            lo, hi = (a, other) if a < other else (other, a)
            sim = cosine(vectors[a], vectors[other])
            heapq.heappush(heap, (-sim, lo, hi, stamps[lo], stamps[hi]))

    _compact(state, sorted(alive_set))
    return log


def _compact(state: ModelState, survivors: list[int]) -> None:
    """Move surviving clusters into slots 0..len-1, preserving id order."""
    for slot, z in enumerate(survivors):
        if slot == z:
            continue
        state.m[slot] = state.m[z]
        state.n[slot] = state.n[z]
        state.nzw[slot] = state.nzw[z]
        state.assignments[np.flatnonzero(state.assignments == z)] = slot
        state.m[z] = 0
        state.n[z] = 0
        state.nzw[z] = 0
    state.k_active = len(survivors)
