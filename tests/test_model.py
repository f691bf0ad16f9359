import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsdmm import _native
from gsdmm.corpus import Corpus, TokenCSR, Vocabulary
from gsdmm.errors import InactiveCluster, NonFiniteScore
from gsdmm.model import (
    EntropyTable,
    ModelState,
    UniformBeta,
    _slot_log_scores,
    _tokens,
    cluster_log_scores,
    conditional_distribution,
    doc_cluster_log_score,
    posterior_phi,
    prior_cluster_factor,
    scored_slots,
    top_words,
    word_entropy,
)
from gsdmm.synth import oracle_delta_ratio

from conftest import corpus_from_counts, make_doc, make_state, random_triple


class TestPriorClusterFactor:
    def test_emptied_cluster_alpha_zero(self):
        state = make_state([0, 3], [[0, 0], [2, 1]], alpha=0.0)
        assert prior_cluster_factor(state, 0, excluding_doc=0) == 0.0

    def test_hand_evaluated(self):
        # (1 + 0.1) / (2 - 1 + 2*0.1), cross-checked against the
        # delta-ratio oracle below
        state = make_state([1, 1], [[2, 0], [0, 3]], alpha=0.1)
        factor = prior_cluster_factor(state, 0, excluding_doc=1)
        assert factor == pytest.approx(0.9166666666666667, rel=1e-12)
        oracle = oracle_delta_ratio(make_doc({}), 0, state, UniformBeta(0.1))
        assert factor == pytest.approx(oracle / (state.D - 1 + 2 * 0.1), rel=1e-12)

    def test_single_cluster_forced_normalization(self):
        # all D docs in the lone cluster, so m_excl = D - 1 and the factor
        # is (D - 1 + alpha) / (D - 1 + alpha)
        state = make_state([7], [[4, 2]], alpha=0.7)
        assert prior_cluster_factor(state, 0, excluding_doc=0) == pytest.approx(1.0)

    def test_inactive_cluster(self):
        state = make_state([2], [[1, 1]], alpha=0.1)
        with pytest.raises(InactiveCluster):
            prior_cluster_factor(state, 3, excluding_doc=0)


class TestDocClusterLogScore:
    def test_single_cluster_conditional_is_one(self):
        state = make_state([4], [[5, 1, 2]], alpha=0.3)
        doc = make_doc({0: 2, 2: 1})
        p = conditional_distribution(doc, state, UniformBeta(0.1))
        assert p.tolist() == [1.0]

    def test_burstiness_product_on_empty_cluster(self):
        # word appearing twice in a doc scored against a zero-count cluster
        # contributes beta * (beta + 1)
        beta, alpha, v = 0.1, 0.1, 4
        state = make_state([0, 5], [[0] * v, [3, 2, 1, 1]], alpha=alpha)
        doc = make_doc({1: 2})
        score = doc_cluster_log_score(doc, 0, state, UniformBeta(beta))
        expected = alpha * (beta * (beta + 1)) / ((v * beta) * (v * beta + 1))
        assert math.exp(score) == pytest.approx(expected, rel=1e-12)

    def test_matches_delta_ratio_oracle(self, rng):
        for _ in range(300):
            state, doc, weights, z = random_triple(rng)
            score = doc_cluster_log_score(doc, z, state, weights)
            oracle = oracle_delta_ratio(doc, z, state, weights)
            if oracle == 0.0:
                assert math.exp(score) == 0.0
            else:
                assert math.exp(score) == pytest.approx(oracle, rel=1e-9)

    def test_vectorized_matches_scalar(self, rng):
        for _ in range(100):
            state, doc, weights, _ = random_triple(rng)
            words = np.fromiter(doc.counts.keys(), dtype=np.int64)
            counts = np.fromiter(doc.counts.values(), dtype=np.int64)
            vec = cluster_log_scores(state, words, counts, weights)
            for z in range(state.k_active):
                scalar = doc_cluster_log_score(doc, z, state, weights)
                if math.isinf(scalar):
                    assert vec[z] == scalar
                else:
                    assert vec[z] == pytest.approx(scalar, rel=1e-12)

    def test_nonfinite_score_diagnostics(self):
        state = make_state([2], [[3, 1]], alpha=0.1)
        state.add_counts(0, 0, -8)  # 3 -> -5: drives a log argument <= 0
        state.n[0] = -4
        with pytest.raises(NonFiniteScore):
            doc_cluster_log_score(make_doc({0: 1}), 0, state, UniformBeta(0.1))

    def test_zero_pseudocounts_rejected_at_construction(self):
        with pytest.raises(ValueError):
            UniformBeta(0.0)
        with pytest.raises(ValueError):
            EntropyTable(h=np.array([0.0, 0.5]))


def _sparse_state(gen, alpha, k_max=60, v=30, n_docs=25, max_count=3):
    """Consistent state built through add_doc: n_docs documents spread over
    a handful of the k_max slots, one document held out. Returns the state,
    the held-out document and its distinct word ids and their counts, the
    arguments of both scorers."""
    live = gen.choice(k_max, size=int(gen.integers(1, 7)), replace=False)
    state = ModelState(n_docs, v, k_max, alpha)
    docs = []
    for d in range(n_docs):
        words = gen.choice(v, size=int(gen.integers(1, 5)), replace=False)
        doc = make_doc({int(w): int(gen.integers(1, max_count + 1))
                        for w in words})
        docs.append(doc)
        if d:
            state.add_doc(d, np.fromiter(doc.counts, dtype=np.intp),
                          np.fromiter(doc.counts.values(), dtype=np.int32),
                          doc.total_len, int(gen.choice(live)))
    doc = docs[0]
    words = np.fromiter(doc.counts, dtype=np.int64)
    counts = np.fromiter(doc.counts.values(), dtype=np.int32)
    return state, doc, words, counts


def _random_weights(gen, state, entropy):
    if entropy:
        h = gen.uniform(1e-3, 1.0, size=state.V)
        return EntropyTable(h=h)
    return UniformBeta(float(gen.choice([0.01, 0.1])))


class TestEmptySlotScoring:
    """The sweep's production path: scored_slots, the kernel on those slots,
    and the take that spreads the representative empty score."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_matches_scalar_on_every_slot(self, rng, alpha, entropy):
        for _ in range(20):
            state, doc, words, counts = _sparse_state(rng, alpha)
            weights = _random_weights(rng, state, entropy)
            slots, row_of = scored_slots(state)
            occupied = np.flatnonzero(state.m)
            assert len(slots) == len(occupied) + 1 < state.k_max
            # the sweep's call, on a document's slices of the corpus tokens
            corpus = corpus_from_counts([{0: 2}, doc.counts, {1: 1}], state.V)
            word_rep, offsets, ctot = _tokens(corpus.token_csr.words,
                                              corpus.token_csr.counts, weights,
                                              state.V)
            s, t = corpus.token_csr.tok_ptr[1:3]
            with np.errstate(divide="ignore"):
                scores = _slot_log_scores(state, word_rep[s:t], offsets[s:t], ctot,
                                          slots).take(row_of)
            assert np.array_equal(
                scores, cluster_log_scores(state, words, counts, weights))
            for z in range(state.k_max):
                scalar = doc_cluster_log_score(doc, z, state, weights)
                if state.m[z] == 0 and alpha == 0:
                    assert scores[z] == scalar == -np.inf
                else:
                    assert scores[z] == pytest.approx(scalar, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_bit_identical_to_dense_gather(self, rng, alpha):
        # the dense gather is column-major, so its rows sum word by word; a
        # row-contiguous block would sum documents of 9+ tokens pairwise.
        # Scoring a subset of clusters must not change any bit of any score,
        # under either weighting
        for _ in range(20):
            state, doc, words, counts = _sparse_state(rng, alpha, max_count=6)
            word_rep = np.repeat(words, counts)
            occ = np.concatenate([np.arange(c, dtype=np.float64) for c in counts])
            h = rng.uniform(1e-3, 1.0, size=state.V)
            k = state.k_active
            nzw = np.ascontiguousarray(state.nzw[:k], dtype=np.int64)
            for weights, cw, ctot in [
                    (UniformBeta(0.1), 0.1, state.V * 0.1),
                    (EntropyTable(h=h), h[word_rep], float(h.sum()))]:
                with np.errstate(divide="ignore"):
                    dense = np.log(state.m[:k] + alpha)
                    dense = dense + np.log(nzw[:, word_rep] + (cw + occ)[None, :]).sum(axis=1)
                    dense -= np.log(state.n[:k, None] + ctot + np.arange(
                        doc.total_len, dtype=np.float64)[None, :]).sum(axis=1)
                got = cluster_log_scores(state, words, counts, weights)
                assert np.array_equal(got, dense)

    def test_no_empty_slot_scores_all(self):
        state = make_state([1, 2], [[1, 0], [0, 3]], alpha=0.1)
        slots, row_of = scored_slots(state)
        assert slots.tolist() == [0, 1] and row_of is None

    def test_tokens_without_documents_count_as_occupied(self):
        state = make_state([0, 0, 2], [[1, 0], [0, 0], [0, 3]], alpha=0.1,
                           n_docs=2)
        slots, row_of = scored_slots(state)
        assert slots.tolist() == [0, 1, 2] and row_of.tolist() == [0, 1, 2]


class TestConditionalDistribution:
    def test_symmetric_clusters(self):
        state = make_state([3, 3], [[2, 1], [2, 1]], alpha=0.1)
        p = conditional_distribution(make_doc({0: 1, 1: 1}), state, UniformBeta(0.1))
        assert p.tolist() == [0.5, 0.5]

    def test_sums_to_one(self, rng):
        for _ in range(50):
            state, doc, weights, _ = random_triple(rng)
            p = conditional_distribution(doc, state, weights)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert (p >= 0).all()

    def test_all_zero_probability_raises(self):
        state = make_state([0, 0], [[0, 0], [0, 0]], alpha=0.0, n_docs=1)
        with pytest.raises(NonFiniteScore):
            conditional_distribution(make_doc({0: 1}), state, UniformBeta(0.1))


class TestWordEntropy:
    def test_uniform_counts_exactly_one(self):
        state = make_state([1, 1, 1], [[4, 7], [4, 7], [4, 7]], alpha=0.1)
        table = word_entropy(state, epsilon=1e-9, normalized=True)
        assert table.h.tolist() == [1.0, 1.0]
        assert table.sum_h == 2.0

    def test_total_is_the_table_sum(self, rng):
        # the denominator's total is h's own sum, bit for bit; it is no
        # argument, and neither are the settings word_entropy computed with
        h = rng.uniform(1e-3, 1.0, size=50)
        for table in (EntropyTable(h), word_entropy(
                make_state([2, 1, 3], rng.integers(0, 4, size=(3, 50)), alpha=0.1))):
            total = float(table.h.sum())
            assert table.sum_h.hex() == total.hex()
            assert table.pseudocounts(50)[1].hex() == total.hex()
        for key, value in (("sum_h", float(h.sum()) + 9e-10), ("epsilon", 5.0),
                           ("normalized", False)):
            with pytest.raises(TypeError):
                EntropyTable(h=h, **{key: value})

    def test_degenerate_word_entropy_tends_to_zero(self):
        state = make_state([1, 1], [[6, 0], [0, 3]], alpha=0.1)
        table = word_entropy(state, epsilon=1e-12, normalized=True)
        assert table.h[0] < 1e-9
        assert table.h[1] < 1e-9

    def test_two_cluster_value(self):
        # -(0.75 log2 0.75 + 0.25 log2 0.25), smoothing negligible
        state = make_state([1, 1], [[3], [1]], alpha=0.1)
        table = word_entropy(state, epsilon=1e-12, normalized=True)
        assert table.h[0] == pytest.approx(0.8112781244591328, rel=1e-9)

    def test_unnormalized_scales_by_log_k(self):
        state = make_state([1, 1], [[3], [1]], alpha=0.1)
        norm = word_entropy(state, epsilon=1e-12, normalized=True)
        raw = word_entropy(state, epsilon=1e-12, normalized=False)
        assert raw.h[0] == pytest.approx(norm.h[0] * math.log(2), rel=1e-12)

    def test_bounds_and_monotone_concentration(self):
        # mass concentrating into fewer clusters strictly lowers entropy
        tables = [[4, 4, 4], [6, 4, 2], [8, 2, 2], [10, 1, 1], [12, 0, 0]]
        values = []
        for col in tables:
            state = make_state([1, 1, 1], [[c] for c in col], alpha=0.1)
            h = word_entropy(state, epsilon=1e-9, normalized=True).h[0]
            assert 0.0 <= h <= 1.0
            values.append(h)
        assert values[0] == 1.0
        for lo, hi in zip(values[1:], values):
            assert lo < hi

    def test_single_active_cluster_all_ones(self):
        state = make_state([2], [[5, 0, 1]], alpha=0.1)
        assert word_entropy(state, 1e-9, True).h.tolist() == [1.0, 1.0, 1.0]

    def test_word_absent_everywhere_is_uninformative(self):
        state = make_state([1, 1], [[3, 0], [2, 0]], alpha=0.1)
        assert word_entropy(state, 1e-9, True).h[1] == 1.0


def _dense_word_entropy(state, epsilon, normalized):
    """The dense formula over every (cluster, word) count: the reference
    the sparse word_entropy must reproduce."""
    k = state.k_active
    if k == 1:
        return np.ones(state.V)
    counts = state.nzw[:k].astype(np.float64)
    p = (counts + epsilon) / (counts.sum(axis=0) + k * epsilon)
    h = -(p * np.log(p)).sum(axis=0)
    top = math.log(k)
    uniform = counts.min(axis=0) == counts.max(axis=0)
    h[uniform] = top
    np.clip(h, None, top, out=h)
    if normalized:
        h = h / top
        h[uniform] = 1.0
    return h


class TestWordEntropyMatchesDense:
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("epsilon", [1e-9, 1e-3])
    def test_random_states(self, rng, normalized, epsilon):
        for _ in range(30):
            k = int(rng.integers(1, 9))
            v = int(rng.integers(1, 40))
            nzw = rng.integers(0, 6, size=(k, v)) * (rng.random((k, v)) < 0.3)
            state = make_state(rng.integers(1, 5, size=k), nzw, alpha=0.1,
                               k_max=k + int(rng.integers(0, 5)))
            got = word_entropy(state, epsilon, normalized).h
            want = _dense_word_entropy(state, epsilon, normalized)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_uniform_solo_and_absent_words(self):
        # word 0 uniform, 1 solo, 2 absent, 3 uniform but not in all clusters
        state = make_state([1] * 4, [[5, 9, 0, 2], [5, 0, 0, 0],
                                     [5, 0, 0, 2], [5, 0, 0, 0]], alpha=0.1)
        for normalized in (True, False):
            got = word_entropy(state, 1e-9, normalized).h
            want = _dense_word_entropy(state, 1e-9, normalized)
            assert got[0] == want[0] and got[2] == want[2]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            assert 0 < got[1] < 1e-7

    def test_single_cluster(self):
        state = make_state([3], [[4, 0, 1]], alpha=0.1, k_max=5)
        assert word_entropy(state, 1e-9, True).h.tolist() == \
            _dense_word_entropy(state, 1e-9, True).tolist() == [1.0, 1.0, 1.0]


class TestPosteriorPhi:
    def test_empty_cluster_uniform(self):
        state = make_state([0, 1], [[0, 0, 0], [1, 0, 1]], alpha=0.1)
        assert posterior_phi(state, 0, beta=0.5).tolist() == [1 / 3] * 3

    def test_hand_evaluated(self):
        state = make_state([2], [[3, 1]], alpha=0.1)
        phi = posterior_phi(state, 0, beta=0.1)
        assert phi[0] == pytest.approx(3.1 / 4.2, rel=1e-12)
        assert phi[1] == pytest.approx(1.1 / 4.2, rel=1e-12)

    def test_normalization(self, rng):
        for _ in range(20):
            state, _, _, z = random_triple(rng)
            phi = posterior_phi(state, z, beta=0.05)
            assert abs(phi.sum() - 1.0) <= 1e-12
            assert (phi >= 0).all()


class TestTopWords:
    VOCAB = Vocabulary(
        id_to_word=("vote", "game", "rain"),
        doc_freq=(1, 1, 1),
    )

    def test_single_word_cluster(self):
        state = make_state([1], [[4, 0, 0]], alpha=0.1)
        assert top_words(state, self.VOCAB, 0, 1, beta=0.1)[0][0] == "vote"

    def test_tie_breaks_to_lower_id(self):
        state = make_state([1], [[2, 2, 0]], alpha=0.1)
        ranked = top_words(state, self.VOCAB, 0, 2, beta=0.1)
        assert [w for w, _ in ranked] == ["vote", "game"]

    def test_dominant_word_ranks_first_across_seeds(self):
        # cluster counts drawn from a distribution with one word at mass 0.5
        v = 10
        phi = np.full(v, 0.5 / (v - 1))
        phi[0] = 0.5
        vocab = Vocabulary(
            id_to_word=tuple(f"w{i}" for i in range(v)),
            doc_freq=tuple([1] * v),
        )
        wins = 0
        for seed in range(100):
            counts = np.random.default_rng(seed).multinomial(200, phi)
            state = make_state([1], [counts], alpha=0.1)
            ranked = top_words(state, vocab, 0, 1, beta=0.1)
            wins += ranked[0][0] == "w0"
        assert wins >= 99


class TestModelState:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_remove_then_restore_bit_identical(self, seed):
        gen = np.random.default_rng(seed)
        state, doc, _, _ = random_triple(gen)
        d = int(gen.integers(0, state.D)) if state.D else 0
        if state.D == 0:
            return
        z = int(state.assignments[d])
        words = np.fromiter(doc.counts.keys(), dtype=np.int64)
        counts = np.fromiter(doc.counts.values(), dtype=np.int64)
        # simulate the doc's counts being part of cluster z first
        state.add_counts(words, z, counts)
        state.n[z] += doc.total_len
        before = state.copy()
        got = state.remove_doc(d, words, counts, doc.total_len)
        assert got == z
        state.add_doc(d, words, counts, doc.total_len, z)
        assert np.array_equal(before.m, state.m)
        assert np.array_equal(before.n, state.n)
        assert np.array_equal(before.nzw, state.nzw)
        assert np.array_equal(before.assignments, state.assignments)

    def test_burstiness_gap_strictly_increasing(self):
        # identical totals, cluster 0 holds the word, cluster 1 does not:
        # the score gap must grow with each repetition of the word
        state = make_state([2, 2], [[5, 3], [0, 8]], alpha=0.1)
        beta = UniformBeta(0.1)
        gaps = []
        for r in range(1, 11):
            doc = make_doc({0: r})
            gap = doc_cluster_log_score(doc, 0, state, beta) - \
                doc_cluster_log_score(doc, 1, state, beta)
            gaps.append(gap)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("words", [None, [0, 2]])
    def test_fold_moves_a_cluster(self, words):
        # cluster 2 (document 3; words 0 and 2) into cluster 0
        state = make_state([2, 1, 1], [[1, 0, 2], [0, 1, 0], [3, 0, 1]],
                           alpha=0.1)
        state.fold(2, 0, None if words is None else np.array(words))
        assert state.m.tolist() == [3, 1, 0]
        assert state.n.tolist() == [7, 1, 0]
        assert state.nzw.tolist() == [[4, 0, 3], [0, 1, 0], [0, 0, 0]]
        assert state.assignments.tolist() == [0, 0, 1, 0]
        state.validate()

    def test_validate_catches_drift(self):
        state = make_state([2, 1], [[1, 0], [0, 2]], alpha=0.1)
        state.validate()
        state.n[0] += 1
        with pytest.raises(AssertionError):
            state.validate()

    def test_sizes_are_read_only(self):
        state = make_state([2, 1], [[1, 0, 2], [0, 2, 0]], alpha=0.1, k_max=4)
        assert (state.D, state.V, state.k_max) == (3, 3, 4)
        for name in ("D", "V", "k_max"):
            with pytest.raises(AttributeError):
                setattr(state, name, 2)

    def test_deactivate_requires_empty(self):
        state = make_state([1, 1], [[1, 0], [0, 1]], alpha=0.1)
        with pytest.raises(InactiveCluster):
            state.deactivate_cluster(0)


def _on_path(path, monkeypatch):
    """Run the count tables' operations in numpy or, if it builds, in C."""
    if path == "numpy":
        monkeypatch.setattr(_native, "kernel", lambda: None)
    elif _native.kernel() is None:
        pytest.skip("no compiled kernel here")


class TestCountTables:
    """The per-word count tables against a dense matrix of the same counts,
    on both the numpy transcription and the compiled Kernel.add."""

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    @given(seed=st.integers(0, 2 ** 32 - 1), v=st.integers(1, 12),
           k_max=st.integers(1, 40), batches=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_adds_match_a_dense_matrix(self, path, seed, v, k_max, batches):
        # small tables over many clusters: long probe runs, runs that wrap
        # past the table's end, and backward shifts across the wrap
        with pytest.MonkeyPatch.context() as mp:
            _on_path(path, mp)
            gen = np.random.default_rng(seed)
            doc_freq = gen.integers(0, 6, size=v)
            state = ModelState(10, v, k_max, 0.1, doc_freq=doc_freq)
            dense = np.zeros((v, k_max), dtype=np.int64)
            # each word's clusters: as many as its bound, from all k_max
            allowed = [gen.permutation(k_max)[:min(f, k_max)] for f in doc_freq]
            for _ in range(batches):
                # pairs within each word's bound, repeated at times; removals
                # take back what is there, so every count stays >= 0
                words = gen.integers(0, v, size=int(gen.integers(0, 12)))
                words = words[doc_freq[words] > 0]
                clusters = np.array([gen.choice(allowed[w]) for w in words],
                                    dtype=np.int64)
                counts = gen.integers(1, 4, size=len(words))
                take = gen.random(len(words)) < 0.4
                counts[take] = -dense[words[take], clusters[take]]
                np.add.at(dense, (words, clusters), counts)
                if (dense < 0).any():  # a pair repeated within a removal
                    np.add.at(dense, (words, clusters), -counts)
                    continue
                state.add_counts(words, clusters, counts)
                assert np.array_equal(state.wz, dense)
            state.n[:] = dense.sum(axis=0)
            state.m[0] = state.D
            state.assignments[:] = 0
            state.validate()
            assert (state.cell_n[state.cell_z < 0] == 0).all()
            for w in range(v):  # half free, or a slot for every cluster
                lo, hi = state.cell_ptr[w], state.cell_ptr[w + 1]
                cells = np.count_nonzero(state.cell_z[lo:hi] >= 0)
                assert 2 * cells <= hi - lo or hi - lo >= k_max

    @given(seed=st.integers(0, 2 ** 32 - 1), v=st.integers(1, 12),
           k_max=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_compiled_counts_match_the_probe(self, seed, v, k_max):
        # Kernel.counts against the numpy probe it replaces in counts_of,
        # for every (word, cluster), on small tables over many clusters
        # whose probe runs wrap past their ends
        kernel = _native.kernel()
        if kernel is None:
            pytest.skip("no compiled kernel here")
        gen = np.random.default_rng(seed)
        doc_freq = gen.integers(0, 6, size=v)
        state = ModelState(10, v, k_max, 0.1, doc_freq=doc_freq)
        dense = np.zeros((v, k_max), dtype=np.int32)
        for w in np.flatnonzero(doc_freq):
            clusters = gen.permutation(k_max)[:min(doc_freq[w], k_max)]
            dense[w, clusters] = gen.integers(1, 5, size=len(clusters))
        words, clusters = np.nonzero(dense)
        state.add_counts(words, clusters, dense[words, clusters])
        # take some cells out again: backward shifts leave other layouts
        gone = gen.random(len(words)) < 0.3
        state.add_counts(words[gone], clusters[gone], -dense[words[gone], clusters[gone]])
        dense[words[gone], clusters[gone]] = 0
        words, clusters = (a.ravel() for a in np.meshgrid(
            np.arange(v), np.arange(k_max), indexing="ij"))
        slots = state._probe(words, clusters)
        probed = np.where(slots >= 0, state.cell_n[slots], 0)
        got = kernel.counts(state, words, clusters)
        assert got.dtype == np.int32
        assert np.array_equal(got, probed)
        assert np.array_equal(got, dense.ravel())

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    def test_full_table_refused(self, path, monkeypatch):
        # word 0 is in one document, so its table has room for one cluster
        _on_path(path, monkeypatch)
        state = ModelState(3, 2, 4, 0.1, doc_freq=[1, 3])
        state.add_counts([0, 0], [0, 1], [1, 1])
        with pytest.raises(ValueError, match="full"):
            state.add_counts(0, 2, 1)

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    @pytest.mark.parametrize("word, cluster", [(0, -1), (0, 4), (-1, 0), (2, 0)])
    def test_cells_outside_the_state_refused(self, path, word, cluster,
                                             monkeypatch):
        # cluster -1 is the free slots' key and a cluster past k_max would be
        # hashed into a table that has no room kept for it
        _on_path(path, monkeypatch)
        state = ModelState(3, 2, 4, 0.1, doc_freq=[3, 3])
        state.add_counts([0, 1], [1, 2], [2, 1])
        before = state.table.copy()
        with pytest.raises(ValueError, match="must lie in"):
            state.add_counts([1, word], [2, cluster], [1, 1])
        assert np.array_equal(state.table, before)
        with pytest.raises(ValueError, match="must lie in"):
            state.counts_of([1, word], [2, cluster])

    def test_memory_is_bounded_by_the_corpus(self):
        # V 100k and k_max 1000, about 200k (document, word) entries: a
        # dense matrix would take 400 MB, the tables a few MB
        gen = np.random.default_rng(3)
        d, v, k_max = 20_000, 100_000, 1000
        sizes = gen.integers(5, 16, size=d)
        word_ptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(sizes, out=word_ptr[1:])
        rank = np.arange(word_ptr[-1]) - np.repeat(word_ptr[:-1], sizes)
        # distinct within a row: a stride coprime to V from a random start
        words = (np.repeat(gen.integers(0, v, size=d), sizes) + 7919 * rank) % v
        csr = TokenCSR(word_ptr, words.astype(np.intp),
                       gen.integers(1, 4, size=len(words)).astype(np.int32))
        corpus = Corpus.from_arrays(csr, [f"d{i}" for i in range(d)],
                                    [None] * d, Vocabulary(
                                        tuple(f"w{i}" for i in range(v)),
                                        (1,) * v))
        state = ModelState.for_corpus(corpus, k_max, 0.1)
        state.add_docs(csr, np.arange(d), gen.integers(0, k_max, size=d))
        state.validate()
        arrays = [a for a in vars(state).values() if isinstance(a, np.ndarray)]
        e = len(words)
        assert 190_000 <= e <= 210_000
        assert len(state.table) <= 4 * e + v  # slots
        used = sum(a.nbytes for a in arrays)
        assert used <= 32 * e + 16 * v + 16 * k_max + 8 * d + 8
        assert used < 20 * 2 ** 20, used

    def test_validate_catches_table_faults(self):
        def faulty(fault):
            state = make_state([2, 1], [[1, 0, 2], [0, 3, 1]], alpha=0.1,
                               k_max=3)
            state.validate()
            taken = np.flatnonzero(state.cell_z >= 0)
            fault(state, taken)
            return state

        def zero_cell(state, taken):  # a cell left at count 0
            state.cell_n[taken[0]] = 0
            state.n[state.cell_z[taken[0]]] -= 1

        def off_its_run(state, taken):  # a cell moved past a free slot
            lo, hi = state.cell_ptr[2], state.cell_ptr[3]
            slots = np.arange(lo, hi)
            cell = slots[state.cell_z[lo:hi] >= 0][0]
            free = slots[state.cell_z[lo:hi] < 0][-1]
            for a in (state.cell_z, state.cell_n):
                a[free], a[cell] = a[cell], a[free]

        def stale_key(state, taken):  # a cell of a cluster past k_active
            state.cell_z[taken[0]] = 2

        def free_with_count(state, taken):
            state.cell_n[np.flatnonzero(state.cell_z < 0)[0]] = 1

        for fault in (zero_cell, off_its_run, stale_key, free_with_count):
            with pytest.raises(AssertionError):
                faulty(fault).validate()

    def test_validate_refuses_a_slot_below_free(self):
        # cluster -3 with count 0 is neither a free slot (-1) nor a cell;
        # the kernel would read it as an index
        state = make_state([2, 1], [[1, 0, 2], [0, 3, 1]], alpha=0.1, k_max=3)
        state.cell_z[np.flatnonzero(state.cell_z < 0)[0]] = -3
        with pytest.raises(AssertionError, match="neither free nor a cell"):
            state.validate()
