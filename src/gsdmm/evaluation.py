"""Clustering quality metrics: optimal-matching accuracy and NMI.

Accuracy maximizes the matched-document count over one-to-one maps between
predicted clusters and gold labels: an exact maximum-weight assignment on
the rectangular confusion matrix, solved here in numpy so that no solver
package is imported. NMI is
mutual information normalized by the geometric mean of the two partition
entropies, natural logs, with 0*log(0) taken as 0. Both are invariant under
relabeling either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch

__all__ = [
    "LabeledPartitionPair",
    "EvalReport",
    "confusion_matrix",
    "accuracy",
    "max_assignment",
    "nmi",
    "evaluate",
]


@dataclass(frozen=True)
class LabeledPartitionPair:
    """Aligned predicted/gold labelings with dense ids in [0, K)."""

    pred: np.ndarray
    gold: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.pred, dtype=np.int64)
        gold = np.asarray(self.gold, dtype=np.int64)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "gold", gold)
        if len(pred) != len(gold):
            raise LengthMismatch(
                f"pred has {len(pred)} entries, gold has {len(gold)}"
            )
        if len(pred) == 0:
            raise LengthMismatch("empty partitions")
        for name, arr in (("pred", pred), ("gold", gold)):
            if arr.min() < 0 or not np.bincount(arr).all():
                raise ValueError(f"{name} ids must be dense in [0, K)")

    @property
    def D(self) -> int:
        return len(self.pred)

    @property
    def k_pred(self) -> int:
        return int(self.pred.max()) + 1

    @property
    def k_gold(self) -> int:
        return int(self.gold.max()) + 1

    @classmethod
    def from_labels(cls, pred, gold) -> "LabeledPartitionPair":
        """Densify arbitrary hashable labels by first appearance."""
        return cls(_densify(pred), _densify(gold))


def _densify(labels) -> np.ndarray:
    mapping: dict = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


@dataclass(frozen=True)
class EvalReport:
    acc: float
    nmi: float
    k_pred: int
    k_gold: int
    confusion: np.ndarray

    def to_json_dict(self) -> dict:
        return {"acc": self.acc, "nmi": self.nmi,
                "k_pred": self.k_pred, "k_gold": self.k_gold}


def confusion_matrix(pair: LabeledPartitionPair) -> np.ndarray:
    """Dense k_pred x k_gold count matrix."""
    mat = np.zeros((pair.k_pred, pair.k_gold), dtype=np.int64)
    np.add.at(mat, (pair.pred, pair.gold), 1)
    return mat


def accuracy(pair: LabeledPartitionPair) -> float:
    """Fraction of documents matched under the best one-to-one cluster to
    label mapping. Clusters left over on the larger side stay unmatched and
    contribute nothing."""
    mat = confusion_matrix(pair)
    rows, cols = max_assignment(mat)
    return float(mat[rows, cols].sum()) / pair.D


# bounds |weight|: potentials and reduced costs then stay within 3x that,
# exact in int64 and far below the solver's infinity (2**61)
_WEIGHT_LIMIT = 1 << 56


def max_assignment(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a maximum-weight one-to-one matching of an
    integer matrix that matches every row or every column, whichever side
    is smaller.

    Exact shortest augmenting paths with integer dual potentials (Jonker &
    Volgenant, 1987) on the smaller side, in numpy. Meant for the confusion
    matrices of ACC, whose smaller side is the number of gold labels: about
    1 ms at tens of labels, 20 ms at 500 x 500 and 90 ms at 1000 x 1000
    (D = 20k, 2-core Xeon), where scipy's compiled solver takes 11 and
    41 ms.
    """
    weights = np.asarray(weights)
    if not np.issubdtype(weights.dtype, np.integer):
        raise TypeError("assignment weights must be integers")
    if weights.ndim != 2:
        raise ValueError("assignment weights must be a 2-D matrix")
    if weights.size and not -_WEIGHT_LIMIT <= weights.min() <= \
            weights.max() <= _WEIGHT_LIMIT:
        raise ValueError("assignment weights must lie within +-2**56")
    flip = weights.shape[0] > weights.shape[1]
    side = weights.T if flip else weights
    cols = _assign_rows(side)
    rows = np.arange(len(cols))
    return (cols, rows) if flip else (rows, cols)


def _assign_rows(weights: np.ndarray) -> np.ndarray:
    """Column of each row of the (n, m) matrix, n <= m, in max_assignment:
    each row in turn grows a Dijkstra tree over the columns on reduced costs
    (cost = -weight) until it reaches a free column, updates the potentials
    of the tree and flips the path. Among the columns nearest the tree a
    free one is taken first (as Jonker and Volgenant do), which ends the
    search early on confusion matrices full of tied counts; further ties go
    to the lowest column. Arrays are indexed from 1; column 0 holds the row
    being added."""
    n, m = weights.shape
    inf = np.iinfo(np.int64).max // 4
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[1:, 1:] = -np.asarray(weights, dtype=np.int64)
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)
    p = np.zeros(m + 1, dtype=np.int64)    # row matched to each column
    way = np.zeros(m + 1, dtype=np.int64)  # previous column on the path
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        dist = 0  # distance of the column last added to the tree
        minv = np.full(m + 1, inf, dtype=np.int64)  # inf once in the tree
        used = np.zeros(m + 1, dtype=bool)
        busy = p != 0  # sorts matched columns after free ones at one distance
        tree, entered = [], []
        while True:
            used[j0] = True
            minv[j0] = inf
            tree.append(j0)
            entered.append(dist)
            i0 = p[j0]
            cand = cost[i0] - v
            cand += dist - u[i0]
            cand[used] = inf
            better = cand < minv
            np.minimum(minv, cand, out=minv)
            way[better] = j0
            key = minv * 2
            key += busy
            j0 = int(key.argmin())
            dist = int(minv[j0])
            if p[j0] == 0:
                break
        tree = np.array(tree)
        shift = dist - np.array(entered)
        u[p[tree]] += shift
        v[tree] -= shift
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    cols = np.empty(n, dtype=np.int64)
    matched = np.flatnonzero(p[1:])
    cols[p[1:][matched] - 1] = matched
    return cols


def nmi(pair: LabeledPartitionPair) -> float:
    """Mutual information over the geometric mean of marginal entropies.

    Two single-cluster partitions are identical, hence 1.0; one degenerate
    side against a non-degenerate one carries no information, hence 0.0.
    """
    counts = confusion_matrix(pair)
    if counts.shape[0] == counts.shape[1] and \
            np.count_nonzero(counts) == counts.shape[0]:
        return 1.0  # identical partitions up to relabeling
    mat = counts.astype(np.float64) / pair.D
    pi = mat.sum(axis=1)
    pj = mat.sum(axis=0)
    h_pred = _entropy(pi)
    h_gold = _entropy(pj)
    if h_pred == 0.0 and h_gold == 0.0:
        return 1.0
    if h_pred == 0.0 or h_gold == 0.0:
        return 0.0
    nz = mat > 0
    mi = float((mat[nz] * np.log(mat[nz] / np.outer(pi, pj)[nz])).sum())
    return min(1.0, max(0.0, mi / np.sqrt(h_pred * h_gold)))


def _entropy(p: np.ndarray) -> float:
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def evaluate(pair: LabeledPartitionPair) -> EvalReport:
    return EvalReport(
        acc=accuracy(pair),
        nmi=nmi(pair),
        k_pred=pair.k_pred,
        k_gold=pair.k_gold,
        confusion=confusion_matrix(pair),
    )
