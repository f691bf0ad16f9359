import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdmm.errors import EmptyCluster, KRealOutOfRange, ZeroNorm
from gsdmm.merge import (
    TfIcfVector,
    compute_icf,
    cosine,
    merge_to_k,
    tficf_vector,
)

from conftest import make_state


class TestComputeIcf:
    def test_term_in_all_clusters(self):
        state = make_state([1, 1, 1], [[2, 0], [1, 0], [5, 0]], alpha=0.1)
        assert compute_icf(state)[0] == pytest.approx(1.0)

    def test_term_in_no_cluster(self):
        state = make_state([1, 1, 1], [[2, 0], [1, 0], [5, 0]], alpha=0.1)
        assert compute_icf(state)[1] == pytest.approx(1 + math.log(4))

    def test_hand_evaluated(self):
        # K=9, cf=1: 1 + log(10/2)
        nzw = np.zeros((9, 1), dtype=int)
        nzw[0, 0] = 3
        state = make_state([1] * 9, nzw, alpha=0.1)
        assert compute_icf(state)[0] == pytest.approx(2.6094379124341005, rel=1e-12)


class TestTficfVector:
    def test_single_word_cluster(self):
        state = make_state([1, 1], [[4, 0], [1, 2]], alpha=0.1)
        icf = compute_icf(state)
        vec = tficf_vector(state, 0, icf)
        assert vec.weights == {0: pytest.approx(icf[0])}
        assert vec.norm == pytest.approx(icf[0])

    def test_proportional_clusters_identical(self):
        state = make_state([1, 1], [[2, 4, 6], [1, 2, 3]], alpha=0.1)
        icf = compute_icf(state)
        a = tficf_vector(state, 0, icf)
        b = tficf_vector(state, 1, icf)
        assert a.weights == pytest.approx(b.weights)
        assert cosine(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_fixture(self):
        # clusters (2,1,0) and (1,0,4): cf=(2,1,1), K=2
        # icf = (1, 1+log(3/2), 1+log(3/2)); weights0 = (2/3, 1/3*icf1, -)
        state = make_state([1, 1], [[2, 1, 0], [1, 0, 4]], alpha=0.1)
        icf = compute_icf(state)
        assert icf.tolist() == pytest.approx([1.0, 1.4054651081081644, 1.4054651081081644])
        vec = tficf_vector(state, 0, icf)
        assert vec.weights[0] == pytest.approx(2 / 3)
        assert vec.weights[1] == pytest.approx(0.46848836936938815)
        assert 2 not in vec.weights

    def test_empty_cluster_rejected(self):
        state = make_state([0, 1], [[0, 0], [1, 1]], alpha=0.1)
        with pytest.raises(EmptyCluster):
            tficf_vector(state, 0, compute_icf(state))


class TestCosine:
    def test_self_similarity(self):
        u = TfIcfVector(weights={0: 0.3, 2: 0.9}, norm=math.hypot(0.3, 0.9))
        assert cosine(u, u) == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_supports(self):
        u = TfIcfVector(weights={0: 1.0}, norm=1.0)
        v = TfIcfVector(weights={1: 1.0}, norm=1.0)
        assert cosine(u, v) == 0.0

    def test_hand_evaluated(self):
        u = TfIcfVector(weights={0: 1.0, 1: 1.0}, norm=math.sqrt(2))
        v = TfIcfVector(weights={0: 1.0}, norm=1.0)
        assert cosine(u, v) == pytest.approx(0.7071067811865475, rel=1e-12)

    def test_zero_norm(self):
        u = TfIcfVector(weights={}, norm=0.0)
        with pytest.raises(ZeroNorm):
            cosine(u, u)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_range(self, seed):
        gen = np.random.default_rng(seed)
        v = 8

        def rand_vec():
            support = gen.choice(v, size=gen.integers(1, v + 1), replace=False)
            weights = {int(w): float(gen.uniform(0.01, 2.0)) for w in support}
            return TfIcfVector(weights=weights,
                               norm=math.sqrt(sum(x * x for x in weights.values())))

        u, w = rand_vec(), rand_vec()
        assert cosine(u, w) == cosine(w, u)
        assert 0.0 <= cosine(u, w) <= 1.0


def _merge_fixture(rng, k, v):
    nzw = rng.integers(0, 6, size=(k, v))
    nzw[np.arange(k), rng.integers(0, v, size=k)] += 3  # no empty cluster
    m = rng.integers(1, 5, size=k)
    return make_state(m, nzw, alpha=0.1)


def _replay_check(state_before, k_real, log):
    """Re-derive every merge step by exhaustive max-similarity scan."""
    icf = compute_icf(state_before)
    counts = {z: state_before.nzw[z].astype(np.int64).copy()
              for z in range(state_before.k_active)}

    def vec(z):
        total = counts[z].sum()
        ids = np.flatnonzero(counts[z])
        w = {int(i): counts[z][i] / total * icf[i] for i in ids}
        return TfIcfVector(weights=w, norm=math.sqrt(sum(x * x for x in w.values())))

    alive = sorted(counts)
    for a, b, sim in log:
        best = max(
            ((cosine(vec(x), vec(y)), x, y)
             for i, x in enumerate(alive) for y in alive[i + 1:]),
            key=lambda t: (t[0], -t[1], -t[2]),
        )
        assert (a, b) == (best[1], best[2])
        assert sim == pytest.approx(best[0], abs=1e-12)
        counts[a] = counts[a] + counts[b]
        del counts[b]
        alive.remove(b)
    assert len(alive) == k_real


class TestMergeToK:
    def test_noop_at_current_k(self):
        state = make_state([2, 3], [[1, 0], [0, 4]], alpha=0.1)
        before = state.copy()
        assert merge_to_k(state, 2) == []
        assert np.array_equal(before.nzw, state.nzw)
        assert np.array_equal(before.assignments, state.assignments)

    def test_identical_pair_merges_first(self):
        # clusters 1 and 3 share one word distribution; the rest are far away
        nzw = np.array([
            [9, 0, 0, 0, 0],
            [0, 4, 2, 0, 0],
            [0, 0, 0, 7, 1],
            [0, 8, 4, 0, 0],
        ])
        state = make_state([2, 2, 2, 2], nzw, alpha=0.1)
        log = merge_to_k(state, 3)
        assert len(log) == 1
        a, b, sim = log[0]
        assert (a, b) == (1, 3)
        assert sim == pytest.approx(1.0, rel=1e-12)

    def test_exact_merge_count_and_conservation(self, rng):
        state = _merge_fixture(rng, k=5, v=8)
        docs_before = int(state.m[:5].sum())
        tokens_before = int(state.n[:5].sum())
        word_totals_before = state.nzw[:5].sum(axis=0).copy()
        log = merge_to_k(state, 3)
        assert len(log) == 2
        k = state.k_active
        assert k == 3
        assert int(state.m[:k].sum()) == docs_before
        assert int(state.n[:k].sum()) == tokens_before
        assert np.array_equal(state.nzw[:k].sum(axis=0), word_totals_before)
        state.validate(require_nonempty=True)

    def test_greedy_maximality_exhaustive(self, rng):
        for _ in range(10):
            k = int(rng.integers(4, 11))
            state = _merge_fixture(rng, k=k, v=12)
            k_real = int(rng.integers(1, k))
            before = state.copy()
            log = merge_to_k(state, k_real)
            assert len(log) == k - k_real
            _replay_check(before, k_real, log)
            state.validate(require_nonempty=True)

    def test_k_real_out_of_range(self):
        state = make_state([1, 1], [[1, 0], [0, 1]], alpha=0.1)
        with pytest.raises(KRealOutOfRange):
            merge_to_k(state, 0)
        with pytest.raises(KRealOutOfRange):
            merge_to_k(state, 3)

    def test_assignments_follow_merges(self):
        nzw = np.array([[5, 0], [5, 0], [0, 5]])
        state = make_state([2, 2, 2], nzw, alpha=0.1)
        log = merge_to_k(state, 2)
        assert log[0][:2] == (0, 1)
        # docs of old clusters 0 and 1 share a label now, old 2 is compacted
        assert state.assignments[:4].tolist() == [0, 0, 0, 0]
        assert state.assignments[4:].tolist() == [1, 1]
        state.validate(require_nonempty=True)
