import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdmm.errors import LengthMismatch
from gsdmm.evaluation import (
    EvalReport,
    LabeledPartitionPair,
    accuracy,
    confusion_matrix,
    evaluate,
    max_assignment,
    nmi,
)
from gsdmm.synth import oracle_assignment_bruteforce


def pair_of(pred, gold):
    return LabeledPartitionPair.from_labels(pred, gold)


class TestLabeledPartitionPair:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            LabeledPartitionPair(np.array([0, 1]), np.array([0]))

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            LabeledPartitionPair(np.array([], dtype=int), np.array([], dtype=int))

    def test_non_dense_rejected(self):
        with pytest.raises(ValueError):
            LabeledPartitionPair(np.array([0, 2]), np.array([0, 1]))

    def test_from_labels_densifies(self):
        pair = pair_of(["x", "y", "x"], [7, 9, 9])
        assert pair.pred.tolist() == [0, 1, 0]
        assert pair.gold.tolist() == [0, 1, 1]


class TestAccuracy:
    def test_relabeled_identical_is_perfect(self):
        pred = [2, 2, 0, 0, 1, 1]
        gold = ["b", "b", "c", "c", "a", "a"]
        assert accuracy(pair_of(pred, gold)) == 1.0

    def test_constant_pred_half_split(self):
        pred = [0] * 10
        gold = [0] * 5 + [1] * 5
        assert accuracy(pair_of(pred, gold)) == 0.5

    def test_matches_bruteforce_on_random_instances(self, rng):
        for _ in range(50):
            k_pred = int(rng.integers(1, 5))
            k_gold = int(rng.integers(1, 4))
            pred = rng.integers(0, k_pred, size=30)
            gold = rng.integers(0, k_gold, size=30)
            pair = pair_of(pred.tolist(), gold.tolist())
            assert accuracy(pair) == oracle_assignment_bruteforce(pair)

    def test_constant_pred_achieves_majority_bound(self, rng):
        # a constant prediction maps onto the largest gold class; one-to-one
        # matching cannot promise more than this for arbitrary predictions
        for _ in range(20):
            gold = rng.integers(0, 3, size=40)
            pair = pair_of([0] * 40, gold.tolist())
            assert accuracy(pair) == np.bincount(pair.gold).max() / pair.D

    def test_best_cell_lower_bound(self, rng):
        # the optimizer can always keep the single heaviest confusion cell
        for _ in range(30):
            pred = rng.integers(0, 4, size=40)
            gold = rng.integers(0, 3, size=40)
            pair = pair_of(pred.tolist(), gold.tolist())
            assert accuracy(pair) >= confusion_matrix(pair).max() / pair.D


def assignment_cases(seed: int) -> list[np.ndarray]:
    """Integer matrices for the assignment solver: 2400 small random ones
    of every orientation (1 x n and n x 1 included), value ranges from
    all-tied 0/1 to wide and negative, all-zero and constant matrices, and
    200 x 50, 50 x 200 and 500 x 500 ones (a random-partition confusion
    matrix of 20k documents among them)."""
    gen = np.random.default_rng(seed)
    cases = []
    for i in range(2400):
        n, m = (int(x) for x in gen.integers(1, 10, size=2))
        if i % 8 == 0:
            n = 1
        elif i % 8 == 1:
            m = 1
        kind = i % 5
        if kind == 0:
            mat = gen.integers(0, 2, size=(n, m))
        elif kind == 1:
            mat = gen.integers(0, 4, size=(n, m))
        elif kind == 2:
            mat = gen.integers(0, 1000, size=(n, m))
        elif kind == 3:
            mat = gen.integers(-50, 51, size=(n, m))
        else:
            mat = np.full((n, m), int(gen.integers(0, 3)))
        cases.append(mat)
    cases.append(gen.integers(0, 30, size=(200, 50)))
    cases.append(gen.integers(0, 3, size=(50, 200)))
    cases.append(gen.integers(0, 10 ** 6, size=(500, 500)))
    confusion = np.zeros((500, 500), dtype=np.int64)
    np.add.at(confusion, (gen.integers(0, 500, 20000),
                          gen.integers(0, 500, 20000)), 1)
    cases.append(confusion)
    return cases


def scipy_total(mat) -> int:
    """Matched total of scipy's solver, the independent reference."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(mat, maximize=True)
    return int(mat[rows, cols].sum())


class TestMaxAssignment:
    def test_matches_scipy(self):
        # a valid one-to-one matching of the smaller side with scipy's total
        for mat in assignment_cases(20):
            rows, cols = max_assignment(mat)
            assert len(rows) == len(cols) == min(mat.shape)
            for idx, size in ((rows, mat.shape[0]), (cols, mat.shape[1])):
                assert len(set(idx.tolist())) == len(idx)
                assert 0 <= idx.min() <= idx.max() < size
            assert int(mat[rows, cols].sum()) == scipy_total(mat)

    def test_empty_side(self):
        for shape in ((0, 3), (3, 0)):
            rows, cols = max_assignment(np.zeros(shape, dtype=np.int64))
            assert len(rows) == len(cols) == 0

    def test_rejects_bad_weights(self):
        with pytest.raises(TypeError):
            max_assignment(np.ones((2, 3)))
        with pytest.raises(ValueError):
            max_assignment(np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError):
            max_assignment(np.array([[1, 2 ** 57]]))
        with pytest.raises(ValueError):
            max_assignment(np.array([[1, -2 ** 63]]))

    def test_accuracy_is_scipy_total_over_d(self, rng):
        for _ in range(60):
            k_pred = int(rng.integers(1, 60))
            k_gold = int(rng.integers(1, 30))
            pair = pair_of(rng.integers(0, k_pred, size=300).tolist(),
                           rng.integers(0, k_gold, size=300).tolist())
            assert accuracy(pair) == scipy_total(confusion_matrix(pair)) / pair.D


class TestNmi:
    def test_identical_partitions(self):
        assert nmi(pair_of([0, 1, 2, 0], [5, 9, 7, 5])) == 1.0

    def test_constant_pred_zero_information(self):
        assert nmi(pair_of([0, 0, 0, 0], [0, 1, 0, 1])) == 0.0

    def test_both_constant_is_one(self):
        assert nmi(pair_of([0, 0], [3, 3])) == 1.0

    def test_independent_partitions(self):
        # contingency table is all ones: zero mutual information
        assert nmi(pair_of([0, 0, 1, 1], [0, 1, 0, 1])) == 0.0

    def test_symmetry(self, rng):
        for _ in range(30):
            pred = rng.integers(0, 4, size=25).tolist()
            gold = rng.integers(0, 3, size=25).tolist()
            assert nmi(pair_of(pred, gold)) == pytest.approx(
                nmi(pair_of(gold, pred)), abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        gen = np.random.default_rng(seed)
        pred = gen.integers(0, 4, size=20)
        gold = gen.integers(0, 3, size=20)
        perm_p = gen.permutation(4)
        perm_g = gen.permutation(3)
        base = pair_of(pred.tolist(), gold.tolist())
        shuffled = pair_of(perm_p[pred].tolist(), perm_g[gold].tolist())
        assert nmi(base) == pytest.approx(nmi(shuffled), abs=1e-12)
        assert accuracy(base) == accuracy(shuffled)


class TestEvalReport:
    def test_fields_and_invariants(self):
        pred = [0, 0, 1, 1, 2]
        gold = ["a", "a", "b", "a", "b"]
        report = evaluate(pair_of(pred, gold))
        assert isinstance(report, EvalReport)
        assert report.k_pred == 3
        assert report.k_gold == 2
        assert report.confusion.sum() == 5
        assert report.acc * 5 == pytest.approx(round(report.acc * 5))
        payload = report.to_json_dict()
        assert set(payload) == {"acc", "nmi", "k_pred", "k_gold"}

    def test_confusion_matrix_counts(self):
        pair = pair_of([0, 0, 1], ["x", "y", "y"])
        mat = confusion_matrix(pair)
        assert mat.tolist() == [[1, 1], [0, 1]]
