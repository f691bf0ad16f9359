"""The compiled sweep kernel against the numpy reference, its build and
cache, and the fallback to numpy when it cannot be built."""

import copy
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdmm import _native, archive, model, sampler
from gsdmm.errors import MalformedRecord, NonFiniteScore
from gsdmm.model import (
    EntropyTable,
    ModelState,
    UniformBeta,
    cluster_log_scores,
    doc_cluster_log_score,
    word_entropy,
)
from gsdmm.sampler import (
    RunConfig,
    adaptive_init,
    gibbs_sweep,
    random_init,
    run_gsdmm,
    run_gsdmm_plus,
)
from gsdmm.synth import GenSpec, generate_corpus

from conftest import corpus_from_counts, make_doc, make_state
from test_model import _random_weights, _sparse_state

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None and shutil.which("gcc") is None,
    reason="no C compiler: the numpy reference is the only path here")


# _CROSSOVER values that force a mode on every document of a call: no count
# of occupied clusters is at or below -1, and none passes 10 ** 6
EVERY_SPARSE, EVERY_DENSE = -1, 10 ** 6


@pytest.fixture()
def crossover():
    """The occupied-cluster count above which the kernel scores sparse: the
    production value, which the k_max <= 40 states here never pass, so
    their calls run dense. The *Sparse classes rerun their tests with every
    document sparse, calls that start with no occupied cluster too."""
    return _native._CROSSOVER


@pytest.fixture()
def kernel(crossover, monkeypatch):
    monkeypatch.setattr(_native, "_CROSSOVER", crossover)
    k = _native.kernel()
    assert k is not None, "a compiler exists but the kernel did not build"
    return k


def _numpy(monkeypatch, fn):
    """fn() run with the compiled kernel unavailable."""
    with monkeypatch.context() as mp:
        mp.setattr(_native, "kernel", lambda: None)
        return fn()


def _noisy_topics(seed, n_topics=4, per_topic=15):
    """Topical documents with a few random words mixed in, over 9 tokens
    each so that chunked products and summed logs round differently."""
    gen = np.random.default_rng(seed)
    docs = []
    for t in range(n_topics):
        for _ in range(per_topic):
            words = [*gen.choice(range(t * 8, t * 8 + 8), size=9),
                     *gen.choice(8 * n_topics, size=3)]
            uniq, cnt = np.unique(words, return_counts=True)
            docs.append({int(w): int(c) for w, c in zip(uniq, cnt)})
    return corpus_from_counts(docs, 8 * n_topics)


def _assert_same_state(a, b):
    assert a.k_active == b.k_active
    for name in ("assignments", "m", "n", "wz"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSweepMatchesNumpy:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("prune_empty", [False, True])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_identical_sweeps(self, kernel, monkeypatch, alpha, prune_empty,
                              entropy):
        corpus = _noisy_topics(int(alpha * 10) + 7)
        cfg = RunConfig(algorithm="gsdmm+" if prune_empty else "gsdmm",
                        k_max=40, alpha=alpha, beta=0.05,
                        entropy_refreshes_per_sweep=7)
        init = adaptive_init if prune_empty else random_init
        compiled = init(corpus, cfg, np.random.default_rng(3))
        reference = compiled.copy()
        rngs = np.random.default_rng(4), np.random.default_rng(4)
        weights = word_entropy(compiled, cfg.entropy_epsilon) if entropy \
            else UniformBeta(cfg.beta)
        for _ in range(5):
            moved = gibbs_sweep(compiled, corpus, weights, cfg, rngs[0])
            moved_ref = _numpy(monkeypatch, lambda: gibbs_sweep(
                reference, corpus, weights, cfg, rngs[1]))
            assert moved == moved_ref
            _assert_same_state(compiled, reference)
            compiled.validate(require_nonempty=prune_empty)
        if prune_empty:
            assert compiled.k_active < cfg.k_max  # pruning happened

    def test_adaptive_init(self, kernel, monkeypatch):
        corpus = _noisy_topics(11, n_topics=5, per_topic=30)
        for seed in range(3):
            cfg = RunConfig(algorithm="gsdmm+", k_max=25, beta=0.01, seed=seed)
            compiled = adaptive_init(corpus, cfg, np.random.default_rng(seed))
            reference = _numpy(monkeypatch, lambda: adaptive_init(
                corpus, cfg, np.random.default_rng(seed)))
            _assert_same_state(compiled, reference)
            compiled.validate(require_nonempty=True)

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_mixed_attached_and_detached(self, kernel, prune, entropy):
        # a state no run gives the steps: gibbs_sweep's documents are all
        # attached and adaptive_init's all detached. Here the first two
        # topics' documents sit in clusters 0-8, the other two topics'
        # documents are detached and fill the empty clusters 9-11, and a
        # shuffled order interleaves the two kinds
        corpus = _noisy_topics(13)
        csr = corpus.token_csr
        gen = np.random.default_rng(21)
        attached = np.arange(len(corpus) // 2)
        weights = UniformBeta(0.05)
        states, results = [], []
        for steps in (kernel.sweep, sampler._numpy_steps):
            state = ModelState.for_corpus(corpus, 12, 0.1)
            state.add_docs(csr, attached, np.arange(len(attached)) % 9)
            detached_at_refresh = []

            def refresh(state=state, seen=detached_at_refresh):
                seen.append(np.flatnonzero(state.assignments < 0).tolist())
                return word_entropy(state)

            rng = np.random.default_rng(22)
            order = rng.permutation(len(corpus))
            moved = steps(state, csr, order, rng.random(len(order)),
                          word_entropy(state) if entropy else weights,
                          prune, 5 if entropy else 0, refresh)
            states.append(state)
            results.append((moved, detached_at_refresh))
        assert results[0] == results[1]
        assert results[0][0] >= len(corpus) - len(attached)
        _assert_same_state(*states)
        states[0].validate()

    def test_one_draw_per_document(self):
        # the kernel's pre-drawn uniforms are the values the numpy sweep
        # draws one document at a time
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(a.random(1000), [b.random() for _ in range(1000)])
        assert a.random() == b.random()

    def test_refresh_points(self, kernel):
        # refreshes happen at the multiples of ceil(D / refreshes), each
        # with the boundary document already detached
        corpus = _noisy_topics(5)
        cfg = RunConfig(algorithm="gsdmm+", k_max=10, beta=0.05,
                        entropy_refreshes_per_sweep=7)
        state = adaptive_init(corpus, cfg, np.random.default_rng(1))
        detached = []

        def refresh():
            detached.append(np.flatnonzero(state.assignments < 0).tolist())
            return word_entropy(state, cfg.entropy_epsilon)

        kernel.sweep(state, corpus.token_csr, np.arange(len(corpus)),
                     np.random.default_rng(2).random(len(corpus)),
                     word_entropy(state, cfg.entropy_epsilon), True,
                     refresh_step=9, refresh=refresh)
        assert detached == [[d] for d in range(0, len(corpus), 9)]
        state.validate(require_nonempty=True)

    def test_full_table_refused(self, kernel, monkeypatch):
        # sized as if word 0 were in one document: its table holds 2 cells,
        # both taken, and document 0's move to the empty cluster 2 (the
        # draw at u near 1 takes the last cluster) needs a third
        csr = corpus_from_counts([{0: 1}, {0: 1}, {0: 1}], 1).token_csr
        for step in (kernel.sweep, sampler._numpy_steps):
            if step is sampler._numpy_steps:
                monkeypatch.setattr(_native, "kernel", lambda: None)
            state = ModelState(3, 1, k_max=3, alpha=10.0, doc_freq=[1])
            state.add_docs(csr, np.arange(3), [0, 0, 1])
            with pytest.raises(ValueError, match="full"):
                step(state, csr, np.array([0]), np.array([1 - 1e-9]),
                     UniformBeta(0.1), prune=False)


class TestSweepMatchesNumpySparse(TestSweepMatchesNumpy):
    @pytest.fixture()
    def crossover(self):
        return EVERY_SPARSE


class TestSparseScoring:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("prune_empty", [False, True])
    @pytest.mark.parametrize("length_dist", ["fixed", "poisson"])
    def test_crossover_keeps_the_chain(self, monkeypatch, alpha, prune_empty,
                                       length_dist):
        # k_max 200 over 300 documents: random_init occupies about 155
        # clusters. With fixed lengths n = 6 m, so most clusters share their
        # (m, n) with many others; with Poisson lengths clusters share n but
        # not m. The chain is the same under the production crossover (sparse
        # until the occupied clusters fall to it, then dense), with every
        # document sparse, with every document dense and on the numpy
        # reference
        corpus, _, _, _ = generate_corpus(GenSpec(
            k=5, v=400, d=300, doc_len=6, length_dist=length_dist,
            beta_gen=0.05, seed=12))
        cfg = RunConfig(algorithm="gsdmm+" if prune_empty else "gsdmm",
                        k_max=200, alpha=alpha, beta=0.05)
        init = random_init(corpus, cfg, np.random.default_rng(5))
        assert init.nonempty_count() > _native._CROSSOVER
        runs = []
        for crossover in (_native._CROSSOVER, EVERY_SPARSE, EVERY_DENSE, None):
            state, rng, moved = init.copy(), np.random.default_rng(6), []
            with monkeypatch.context() as mp:
                if crossover is None:
                    mp.setattr(_native, "kernel", lambda: None)
                else:
                    mp.setattr(_native, "_CROSSOVER", crossover)
                for _ in range(3):
                    moved.append(gibbs_sweep(state, corpus, UniformBeta(cfg.beta),
                                             cfg, rng))
            state.validate()
            runs.append((state, moved))
        for state, moved in runs[1:]:
            assert moved == runs[0][1]
            _assert_same_state(state, runs[0][0])
        if prune_empty:
            assert runs[0][0].k_active < cfg.k_max


class TestModeChangeInsideACall:
    """One kernel call whose occupied-cluster count crosses _CROSSOVER, so
    its documents score sparse and then dense, or dense and then sparse,
    against the same call with every document sparse, with every document
    dense and on the numpy reference."""

    PATHS = ("shipped", "sparse", "dense", "numpy")

    @staticmethod
    def _call(path, state, csr, order, uniforms, weights):
        with pytest.MonkeyPatch.context() as mp:
            if path == "numpy":
                return sampler._numpy_steps(state, csr, order, uniforms,
                                            weights, False)
            if path != "shipped":
                mp.setattr(_native, "_CROSSOVER",
                           EVERY_SPARSE if path == "sparse" else EVERY_DENSE)
            return _native.kernel().sweep(state, csr, order, uniforms,
                                          weights, False)

    def _check(self, init, csr, order, uniforms, weights):
        results = []
        for path in self.PATHS:
            state = init.copy()
            moved = self._call(path, state, csr, order, uniforms, weights)
            state.validate()
            results.append((path, state, moved))
        # the numpy steps take a document's cells out before its draw and
        # put them back after, so a probe run can hold its cells in another
        # order there: the same counts, compared as the matrix wz
        _, shipped, moved = results[0]
        for path, state, other in results[1:]:
            assert other == moved, path
            for name in ("assignments", "m", "n",
                         "wz" if path == "numpy" else "table"):
                assert np.array_equal(getattr(state, name),
                                      getattr(shipped, name)), (path, name)
        return shipped

    def test_falling_through_the_crossover(self):
        # gsdmm from random_init at k_max 200: about 155 clusters occupied
        # on entry, and the sweep empties most of them
        corpus = _fixed_length_corpus()
        cfg = RunConfig(k_max=200, alpha=0.1, beta=0.05)
        init = random_init(corpus, cfg, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        order = rng.permutation(len(corpus))
        state = self._check(init, corpus.token_csr, order,
                            rng.random(len(order)), UniformBeta(cfg.beta))
        assert init.nonempty_count() > _native._CROSSOVER >= state.nonempty_count()

    def test_rising_through_the_crossover(self):
        # detached documents join 5 seeded clusters; a large alpha gives
        # each empty cluster nearly an occupied one's prior mass, so most
        # joins open a cluster
        corpus = _fixed_length_corpus()
        csr = corpus.token_csr
        init = ModelState.for_corpus(corpus, 200, 50.0)
        init.add_docs(csr, np.arange(5), np.arange(5))
        rng = np.random.default_rng(7)
        order = 5 + rng.permutation(len(corpus) - 5)
        state = self._check(init, csr, order, rng.random(len(order)),
                            UniformBeta(1.0))
        assert init.nonempty_count() <= _native._CROSSOVER < state.nonempty_count()


def _fixed_length_corpus(d=300, seed=31):
    """Documents of 6 tokens each: a cluster's n is 6 m, so the occupied
    clusters fall into a few (m, n) classes of many members."""
    corpus, _, _, _ = generate_corpus(GenSpec(
        k=5, v=400, d=d, doc_len=6, length_dist="fixed", beta_gen=0.05,
        seed=seed))
    return corpus


def kernel_scores(state, words, counts, weights, crossover):
    """Kernel.log_scores with _CROSSOVER set to crossover."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_CROSSOVER", crossover)
        return _native.kernel().log_scores(state, words, counts, weights)


class TestClassBookkeeping:
    """The sparse path scores one member per (m, n) class, so the classes
    must follow every count change: moves, prunes, the re-entries after an
    entropy refresh and the return to sparse mode. Each chain here runs with
    every document sparse, under the production crossover (k_max 200: sparse
    until the occupied clusters fall to it), with every document dense and
    on the numpy reference. A large beta (gsdmm) or alpha (gsdmm+) gives the
    clusters that share no word with a document enough mass to be drawn, so
    a stale class shows in the chain."""

    PATHS = ("sparse", "shipped", "dense", "numpy")

    @staticmethod
    def _on(path, monkeypatch, fn):
        with monkeypatch.context() as mp:
            if path == "numpy":
                mp.setattr(_native, "kernel", lambda: None)
            elif path != "shipped":
                mp.setattr(_native, "_CROSSOVER",
                           EVERY_SPARSE if path == "sparse" else EVERY_DENSE)
            return fn()

    def _steps(self, path, monkeypatch, state, corpus, weights, prune,
               refreshes, sweeps=3):
        """sweeps passes of the path's steps over state, each in a new
        random order; returns the moves and k_active at every refresh."""
        csr = corpus.token_csr
        rng = np.random.default_rng(17)
        moved, seen = [], []

        def refresh():
            seen.append(state.k_active)
            return word_entropy(state)

        step = sampler._numpy_steps if path == "numpy" else \
            lambda *a: _native.kernel().sweep(*a)
        for _ in range(sweeps):
            order = rng.permutation(len(corpus))
            moved.append(self._on(path, monkeypatch, lambda: step(
                state, csr, order, rng.random(len(order)), weights(), prune,
                -(-len(corpus) // refreshes) if refreshes else 0, refresh)))
        return moved, seen

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_gsdmm_steps_on_shared_classes(self, monkeypatch, alpha):
        corpus = _fixed_length_corpus()
        cfg = RunConfig(k_max=200, alpha=alpha, beta=1.0)
        init = random_init(corpus, cfg, np.random.default_rng(5))
        occupied = init.m > 0
        assert occupied.sum() > _native._CROSSOVER
        assert len(np.unique(init.m[occupied])) < occupied.sum() // 10
        runs = []
        for path in self.PATHS:
            state = init.copy()
            runs.append((state, self._steps(
                path, monkeypatch, state, corpus, lambda: UniformBeta(cfg.beta),
                prune=False, refreshes=0)))
        for state, result in runs[1:]:
            assert result == runs[0][1]
            _assert_same_state(state, runs[0][0])
        runs[0][0].validate()

    def test_gsdmm_plus_steps_with_prunes_and_refreshes(self, monkeypatch):
        # adaptive_init seeds every cluster with one document, so the
        # joins start from a single class of 200 members; the sweeps then
        # prune, and each refresh re-enters the kernel
        corpus = _fixed_length_corpus()
        cfg = RunConfig(algorithm="gsdmm+", k_max=200, alpha=1.0, beta=0.05)
        runs = []
        for path in self.PATHS:
            state = self._on(path, monkeypatch, lambda: adaptive_init(
                corpus, cfg, np.random.default_rng(8)))
            runs.append((state, self._steps(
                path, monkeypatch, state, corpus,
                lambda s=state: word_entropy(s),
                prune=True, refreshes=7)))
        for state, result in runs[1:]:
            assert result == runs[0][1]
            _assert_same_state(state, runs[0][0])
        state, (_, at_refresh) = runs[0]
        state.validate(require_nonempty=True)
        assert len(at_refresh) == 3 * 7
        assert at_refresh[0] > _native._CROSSOVER > state.k_active
        # every active cluster is occupied at a refresh, so the shipped run
        # changed to dense inside the entry after the last refresh past the
        # crossover
        assert any(a > _native._CROSSOVER >= b
                   for a, b in zip(at_refresh, at_refresh[1:]))

    @staticmethod
    def _overlapped_class_state():
        """Clusters 0-2 form the class (2, 6) and each holds word 0 of the
        document (words 0-2); cluster 3 of the class (1, 3) holds words 0
        and 1, and cluster 4 of the same class none of them; cluster 5 is
        (3, 9) and 6-7 are empty."""
        docs = [{0: 1, 5: 2}, {6: 3}, {0: 2, 7: 1}, {8: 3}, {0: 1, 9: 2},
                {10: 3}, {0: 1, 1: 1, 11: 1}, {12: 3}, {13: 3},
                {14: 1, 15: 2}, {16: 3}]
        corpus = corpus_from_counts(docs, 20)
        state = ModelState.for_corpus(corpus, 8, 0.1)
        state.add_docs(corpus.token_csr, np.arange(len(docs)),
                       np.array([0, 0, 1, 1, 2, 2, 3, 4, 5, 5, 5]))
        return state, np.array([0, 1, 2]), np.array([2, 1, 1])

    @pytest.mark.parametrize("entropy", [False, True])
    def test_log_scores_bitwise_with_an_overlapped_class(self, entropy):
        state, words, counts = self._overlapped_class_state()
        weights = _random_weights(np.random.default_rng(4), state, entropy)
        sparse, dense = (kernel_scores(state, words, counts, weights, crossover)
                         for crossover in (EVERY_SPARSE, EVERY_DENSE))
        assert sparse.tobytes() == dense.tobytes()
        assert np.allclose(sparse, cluster_log_scores(state, words, counts,
                                                      weights), rtol=1e-12)

    def test_log_scores_names_the_same_bad_cluster(self):
        # word 0 has pseudo-count 0, so every cluster without it scores
        # -inf. The first is cluster 4, which reads the score of its class
        # (1, 3) while cluster 3 of that class reads its own, finite one;
        # the empty clusters' -inf is no fault
        state, words, counts = self._overlapped_class_state()
        table = _bad_weights("zero_entropy", state.V)
        messages = []
        for crossover in (EVERY_SPARSE, EVERY_DENSE):
            with pytest.raises(NonFiniteScore) as err:
                kernel_scores(state, words, counts, table, crossover)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "clusters [4]" in messages[0]

    def test_sparse_scores_once_per_needed_class(self):
        # the overlapping clusters 0-3, then one member of the classes
        # (1, 3), (3, 9) and (0, 0); the class (2, 6), all of whose members
        # share a word, gets no score. The kernel writes a score only for
        # what it scores, into the third k_max block of the float work space
        # of the state's binding
        state, words, counts = self._overlapped_class_state()
        work = _native.kernel()._float_work(state)
        work[:] = np.nan
        kernel_scores(state, words, counts, UniformBeta(0.1), EVERY_SPARSE)
        written = ~np.isnan(work[2 * state.k_max:3 * state.k_max])
        assert written.sum() == 4 + 3


class TestCompiledScores:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_matches_scalar_on_every_slot(self, kernel, rng, alpha, entropy):
        for _ in range(20):
            state, doc, words, counts = _sparse_state(rng, alpha, max_count=12)
            weights = _random_weights(rng, state, entropy)
            scores = kernel.log_scores(state, words, counts, weights)
            assert len(scores) == state.k_active
            reference = cluster_log_scores(state, words, counts, weights)
            assert np.allclose(scores, reference, rtol=1e-12, atol=1e-9)
            for z in range(state.k_active):
                scalar = doc_cluster_log_score(doc, z, state, weights)
                if state.m[z] == 0 and alpha == 0:
                    assert scores[z] == scalar == -np.inf
                else:
                    assert abs(scores[z] - scalar) <= 1e-9

    @pytest.mark.parametrize("beta", [0.01, 1e-60, 1e60])
    def test_long_document(self, kernel, beta):
        # 2000 tokens: one log per factor would be slow and one product
        # over the document would underflow. Most counts are zero and half
        # the tokens are words seen once, so with a tiny pseudo-count most
        # chunks underflow, and with a huge one every chunk overflows; those
        # chunks are redone in per-factor logs from the chunk's first token
        gen = np.random.default_rng(5)
        v = 1500
        counts_zw = gen.integers(1, 4, size=(3, v)) * (gen.random((3, v)) < 0.2)
        state = make_state([3, 5, 0], counts_zw, alpha=0.1)
        words = gen.choice(v, size=1200, replace=False)
        counts = np.ones(1200, dtype=np.int64)
        counts[1000:] = gen.integers(2, 6, size=200)
        counts[-1] += 2000 - counts.sum()
        assert counts.sum() == 2000 and (counts > 0).all()
        weights = UniformBeta(beta)
        got = kernel.log_scores(state, words, counts, weights)
        ref = cluster_log_scores(state, words, counts, weights)
        assert np.isfinite(got).all()
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-9)


class TestCompiledScoresSparse(TestCompiledScores):
    @pytest.fixture()
    def crossover(self):
        return EVERY_SPARSE


def _bad_weights(kind, v):
    if kind == "zero_entropy":
        h = np.full(v, 0.5)
        table = EntropyTable(h=h)
        table.h[0] = 0.0  # bypasses the constructor's positivity check
        return table
    weights = UniformBeta(0.1)
    object.__setattr__(weights, "beta", -0.5)
    return weights


class TestNonFinite:
    @pytest.mark.parametrize("kind", ["zero_entropy", "negative_beta"])
    def test_scores_raise_like_numpy(self, kernel, kind):
        # two unseen words with a negative pseudo-count: each log is NaN,
        # but their product is positive (and so is every cluster total's
        # factor), so a bare product would pass
        state = make_state([2, 1], [[0, 0, 30], [0, 0, 10]], alpha=0.1)
        weights = _bad_weights(kind, 3)
        for scores in (cluster_log_scores, kernel.log_scores):
            with pytest.raises(NonFiniteScore):
                scores(state, np.array([0, 1]), np.array([1, 1]), weights)
        # a document that avoids the bad word scores finite on both paths
        if kind == "zero_entropy":
            ok = make_doc({1: 2, 2: 1})
            words = np.fromiter(ok.counts, np.int64)
            counts = np.fromiter(ok.counts.values(), np.int32)
            got = kernel.log_scores(state, words, counts, weights)
            ref = [doc_cluster_log_score(ok, z, state, weights) for z in range(2)]
            assert np.allclose(got, ref, rtol=1e-12)
            assert np.allclose(cluster_log_scores(state, words, counts, weights),
                               ref, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["zero_entropy", "negative_beta", "all_empty"])
    def test_sweep_raises_like_numpy(self, kernel, monkeypatch, kind):
        if kind == "all_empty":
            # alpha = 0 and the lone document's cluster empties: no cluster
            # has probability left
            corpus = corpus_from_counts([{0: 2, 1: 1}], 2)
            cfg = RunConfig(k_max=3, alpha=0.0)
            weights = UniformBeta(0.1)
        else:
            # word 0 appears in document 0 alone, so once it is detached
            # every occupied cluster scores log(0 + h_0) or log(0 + beta)
            corpus = corpus_from_counts([{0: 1, 1: 1}, {1: 2}, {1: 1}], 2)
            # no refresh, which would replace the broken table
            cfg = RunConfig(k_max=2, alpha=0.1, entropy_refreshes_per_sweep=0)
            weights = _bad_weights(kind, 2)
        states = []
        for run in (lambda f: f(), lambda f: _numpy(monkeypatch, f)):
            state = random_init(corpus, cfg, np.random.default_rng(0))
            with pytest.raises(NonFiniteScore):
                run(lambda: gibbs_sweep(state, corpus, weights, cfg,
                                        np.random.default_rng(1)))
            states.append(state)
        # both stop with the scored document detached, its counts removed
        _assert_same_state(*states)
        assert (states[0].assignments < 0).sum() == 1

    def test_rejects_mismatched_arrays(self, kernel):
        state = make_state([1, 1], [[1, 0], [0, 1]], alpha=0.1)
        with pytest.raises(ValueError):
            kernel.log_scores(state, np.array([0, 5]), np.array([1, 1]),
                              UniformBeta(0.1))
        with pytest.raises(ValueError):
            kernel.log_scores(state, np.array([0]), np.array([1, 1]),
                              UniformBeta(0.1))
        corpus = corpus_from_counts([{0: 1}, {1: 1}, {0: 2}], 2)
        with pytest.raises(ValueError):  # state sized for another corpus
            kernel.sweep(state, corpus.token_csr, np.arange(3),
                         np.zeros(3), UniformBeta(0.1), False)


class TestNonFiniteSparse(TestNonFinite):
    @pytest.fixture()
    def crossover(self):
        return EVERY_SPARSE


class TestCompiledCells:
    def test_refresh_lists_cells_in_c(self, kernel, monkeypatch):
        # a silent fallback to the numpy cells would hide the lost speed
        calls = []
        real = _native.Kernel.cells

        def spy(self, state):
            calls.append(state.k_active)
            return real(self, state)

        def numpy_cells(state):
            raise AssertionError("the numpy cells ran beside a compiler")

        monkeypatch.setattr(_native.Kernel, "cells", spy)
        monkeypatch.setattr(model, "_nonzero_cells", numpy_cells)
        cfg = RunConfig(algorithm="gsdmm+", k_max=20, k_real=4, beta=0.05,
                        iterations=2, entropy_refreshes_per_sweep=5, seed=3)
        run_gsdmm_plus(_noisy_topics(2), cfg)
        assert len(calls) == 1 + 2 * 5
        assert calls[0] == 20

    def test_lists_the_tables(self, kernel):
        # word 0's table has a slot for every cluster, read in slot order;
        # word 2's has 4, where clusters 3 and 7 share home slot 3 and 7
        # wraps to slot 0, so its cells are listed sorted
        corpus = corpus_from_counts([{0: 1}, {1: 2}, {0: 2, 2: 1}, {2: 4},
                                     {0: 1}], 3)
        state = ModelState(5, 3, k_max=8, alpha=0.1, doc_freq=[8, 1, 2])
        state.add_docs(corpus.token_csr, np.arange(5), [0, 5, 3, 7, 6])
        assert state.cell_ptr.tolist() == [0, 8, 10, 14]
        assert state.cell_z.tolist()[10:] == [7, -1, -1, 3]
        words, clusters, counts = kernel.cells(state)
        assert words.tolist() == [0, 0, 0, 1, 2, 2]
        assert clusters.tolist() == [0, 3, 6, 5, 3, 7]
        assert counts.tolist() == [1, 2, 1, 2, 1, 4]
        for got, want in zip((words, clusters, counts),
                             model._nonzero_cells(state)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_rejects_mismatched_arrays(self, kernel):
        corpus = corpus_from_counts([{0: 1}, {1: 2}, {0: 2, 2: 1}], 3)
        state = ModelState.for_corpus(corpus, 2, 0.1)
        state.add_docs(corpus.token_csr, np.arange(3), [0, 1, 0])
        words, clusters, counts = kernel.cells(state)
        assert words.tolist() == [0, 1, 2] and counts.tolist() == [3, 2, 1]
        stray = state.copy()
        stray.assignments[0] = 2
        with pytest.raises(ValueError):  # an assignment past k_active
            kernel.cells(stray)
        cut = state.copy()
        cut.table = cut.table[:-1].copy()
        with pytest.raises(ValueError):  # tables shorter than their offsets
            kernel.cells(cut)
        outside = state.copy()
        outside.cell_z[np.flatnonzero(outside.cell_z < 0)[0]] = 2
        with pytest.raises(ValueError):  # a cell past k_max
            kernel.cells(outside)


class TestBinding:
    """A state is bound to the kernel on its first call and keeps the
    binding while its arrays stay; no copy of it shares the binding."""

    @staticmethod
    def _bound_state(kernel):
        corpus = _noisy_topics(5)
        state = ModelState.for_corpus(corpus, 12, 0.1)
        state.add_docs(corpus.token_csr, np.arange(len(corpus)),
                       np.arange(len(corpus)) % 12)
        kernel.cells(state)  # binds it
        return corpus.token_csr, state

    @staticmethod
    def _sweep_both(monkeypatch, kernel, state, csr):
        """Sweep state on the kernel and a copy of it on numpy; both must
        end the same."""
        ref = state.copy()
        args = (csr, np.arange(state.D), np.random.default_rng(1).random(state.D),
                UniformBeta(0.1), False)
        moved = kernel.sweep(state, *args)
        assert moved == _numpy(monkeypatch,
                               lambda: sampler._numpy_steps(ref, *args)) > 0
        _assert_same_state(state, ref)

    @pytest.mark.parametrize("duplicate", [
        ModelState.copy, copy.deepcopy,
        lambda state: pickle.loads(pickle.dumps(state))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_bind_their_own_arrays(self, kernel, monkeypatch, duplicate):
        csr, state = self._bound_state(kernel)
        before = state.copy()
        twin = duplicate(state)
        self._sweep_both(monkeypatch, kernel, twin, csr)
        for name in ("assignments", "m", "n", "table"):
            assert np.array_equal(getattr(state, name), getattr(before, name))

    def test_shallow_copy_binds_the_shared_arrays(self, kernel, monkeypatch):
        csr, state = self._bound_state(kernel)
        twin = copy.copy(state)
        self._sweep_both(monkeypatch, kernel, twin, csr)
        assert state.m is twin.m  # one set of arrays, with two bindings
        assert kernel._bindings[twin][0] is not kernel._bindings[state][0]

    @pytest.mark.parametrize("name", ["table", "m", "n", "assignments"])
    def test_replaced_array_is_bound_anew(self, kernel, monkeypatch, name):
        csr, state = self._bound_state(kernel)
        old = getattr(state, name)
        kept = old.copy()
        setattr(state, name, old.copy())
        self._sweep_both(monkeypatch, kernel, state, csr)
        assert np.array_equal(old, kept)  # the array bound first is untouched

    def test_refuses_a_slot_below_free(self, kernel):
        # a cluster of -3 is neither a free slot nor a cluster's cell: the
        # kernel would read it as an index into its work space
        csr, state = self._bound_state(kernel)
        state.cell_z[np.flatnonzero(state.cell_z < 0)[0]] = -3
        lo, hi = csr.word_ptr[0], csr.word_ptr[1]
        with pytest.raises(ValueError):
            kernel.cells(state)
        with pytest.raises(ValueError):
            kernel.sweep(state, csr, np.arange(1), np.zeros(1), UniformBeta(0.1),
                         False)
        with pytest.raises(ValueError):
            kernel.log_scores(state, csr.words[lo:hi], csr.counts[lo:hi],
                              UniformBeta(0.1))


def reference_runs(raw: bytes) -> tuple[list[int], list[int], list[str]]:
    """Kernel.runs by the regex of corpus._split: each [a-z]+ run's
    segment (the NUL bytes before it) and part id, the parts numbered by
    first appearance, and the parts."""
    seg, part, index, s = [], [], {}, 0
    for match in re.finditer(rb"[a-z]+|\x00", raw):
        if match.group() == b"\x00":
            s += 1
        else:
            seg.append(s)
            part.append(index.setdefault(match.group(), len(index)))
    return seg, part, [p.decode() for p in index]


def compiled_documents(kernel: _native.Kernel, text: str, v: int):
    """The compiled reading of documents.txt: Kernel.pairs, then the array
    checks of what it does not check; (doc ids, labels, words, counts,
    word_ptr) or None. A value of more than 18 digits raises
    OverflowError."""
    pairs = kernel.pairs(text.encode("utf-8"))
    return None if pairs is None else archive._checked(text, pairs, v)


def line_loop(loop, *args):
    """What a line loop of archive returns, or None where it raises."""
    try:
        return loop(*args)
    except MalformedRecord:
        return None


# byte strings built to hit the scans' edges: run starts and ends at the
# letters' neighbours (` and {), NUL, bytes of multi-byte UTF-8, a
# surrogate's UTF-8 form, line ends and tabs
_RUN_PIECES = [b"a", b"z", b"`", b"{", b"A", b"Z", b"\x00", b"\xff", b"\x80",
               b"\xed\xa0\x80", b"\xc3\xa9", b"\n", b"\t", b" ", b"ab", b"abc",
               b"ba", b"abcabc", b"zz", b"0"]
_run_bytes = st.lists(st.one_of(st.sampled_from(_RUN_PIECES), st.binary(max_size=3)),
                      max_size=40).map(b"".join)
# documents.txt lines: the pair syntax and its separators, and now and then
# what breaks it; one line in ten lacks the doc id and label columns
_PAIR_GOOD = ["0", "1", "9", "007", " ", "\x0b", "\x0c", "\x1c", "\x1f", "1:2 ",
              "3:45 ", " 5:6\x1f", "1" * 18 + ":1 ", "2:" + "9" * 18]
_PAIR_BAD = [":", "\t", "\n", "\r", "a", "\u0665", "-", "+", "_", "é", "9" * 19,
             "0" * 20 + "5"]
_pair_lines = st.lists(st.tuples(
    st.integers(0, 9),
    st.lists(st.sampled_from(_PAIR_GOOD * 30 + _PAIR_BAD), max_size=10).map("".join)),
    max_size=5).map(lambda lines: "".join(
        (f"d{i}\tx\t" if n else "") + line + "\n"
        for i, (n, line) in enumerate(lines)))
# vocabulary.tsv lines id<TAB>word<TAB>df, the id the line's index; now and
# then one part is replaced: by what the scan refuses, by a value of 19 or
# more digits, which it hands to the line loop, or by a form both accept.
# The word part holds the tab after it, so that a fault can drop both.
_VOCABULARY_FAULTS = [None] * 120 + [
    *(("id", form) for form in ["0{}", "0" * 18 + "{}", "+{}", "{}x", "", "\u0663",
                                "{}1", "9" * 19, "{}\t"]),
    *(("word", word) for word in ["x\ty\t", "\t", "\x00\t", " \t", "", "7", "w",
                                  "w\t\t"]),
    *(("df", df) for df in ["", "a", " 1", "\u0663", "-1", "9" * 19, "1\t",
                            "0" * 20 + "7"])]


def _vocabulary_line(i: int, word: str, df: str, fault) -> str:
    parts = {"id": "{}", "word": f"{word}\t", "df": df}
    if fault:
        parts[fault[0]] = fault[1]
    return f"{parts['id'].format(i)}\t{parts['word']}{parts['df']}\n"


_vocabulary_lines = st.lists(st.tuples(
    st.sampled_from(["w", "ab", "é", "zz", "7", ""]),
    st.sampled_from(["0", "1", "9", "123", "9" * 18]),
    st.sampled_from(_VOCABULARY_FAULTS)), max_size=8).map(
        lambda lines: "".join(_vocabulary_line(i, *line)
                              for i, line in enumerate(lines)))


def _built() -> _native.Kernel:
    """The compiled kernel, for property tests, which take no
    function-scoped fixture."""
    k = _native.kernel()
    assert k is not None, "a compiler exists but the kernel did not build"
    return k


class TestByteScans:
    """The compiled scans of ingestion and the archive reader against the
    regex and the line loops they stand in for."""

    @settings(max_examples=300, deadline=None)
    @given(raw=_run_bytes)
    def test_runs_match_the_regex(self, raw):
        kernel = _built()
        seg, part, parts = kernel.runs(raw)
        assert seg.dtype == part.dtype == np.int64
        assert (seg.tolist(), part.tolist(), parts) == reference_runs(raw)

    def test_runs_of_many_parts(self, kernel):
        # past the hash table's first size, 1024 slots, so it doubles twice
        # and inserts the parts anew each time
        letters = "abcdefghijklmnopqrstuvwxyz"
        raw = " ".join(a + b + c for a in letters for b in letters
                       for c in "xyz").encode()
        raw = raw + b"\x00" + raw + b"q" * 100_000
        seg, part, parts = kernel.runs(raw)
        assert (seg.tolist(), part.tolist(), parts) == reference_runs(raw)
        assert len(parts) == 26 * 26 * 3 + 1

    @settings(max_examples=300, deadline=None)
    @given(text=_pair_lines, v=st.integers(1, 120))
    def test_pairs_match_the_line_loop(self, text, v):
        want = line_loop(archive._documents_loop, text, v)
        try:
            got = compiled_documents(_built(), text, v)
        except OverflowError:  # handed to the line loop
            assert re.search("[0-9]{19}", text)
            return
        assert (got is None) == (want is None)
        if got is not None:
            assert got[:2] == want[:2]  # doc ids, labels
            for a, b in zip(got[2:], want[2:]):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(text=_vocabulary_lines)
    def test_vocabulary_scan_matches_the_line_loop(self, text):
        want = line_loop(archive._vocabulary_loop, text)
        try:
            got = _built().vocabulary(text.encode("utf-8"))
        except OverflowError:  # handed to the line loop
            assert re.search("[0-9]{19}", text)
            return
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == np.int64 and got.tolist() == want[1]


# Run in a process of its own with the sanitizer runtime preloaded: the
# kernel built with AddressSanitizer and UndefinedBehaviorSanitizer
# (argv[1]) against the numpy reference, with every document sparse, with
# every document dense and at crossover 20, where the runs' calls change
# mode as their 40 clusters empty; then a call whose joins fill clusters
# past 20, changing to sparse. The runs insert cells into the count tables
# and delete them by backward shifts, in the sweeps and in Kernel.add (the
# initial states, the merge's folds); gsdmm+ moves the cells of pruned
# clusters under new keys and lists the tables' cells for its refreshes.
# Most used words' tables hold 2 to 32 slots for 40 clusters, so probe
# runs and backward shifts wrap past a table's end. Then Kernel.counts
# reads every cell of the last state; two states bound at once run their
# sweeps, cell listings, count reads and adds interleaved, and a copy(), a
# deepcopy and a state whose m was replaced are swept; and the byte scans
# of ingestion and the archive reader run on drawn adversarial inputs.
_SANITIZED_RUN = """
import copy, ctypes, re, sys
import numpy as np
from gsdmm import _native, archive, model, sampler
from gsdmm.model import ModelState, UniformBeta, cluster_log_scores, word_entropy
from gsdmm.sampler import RunConfig, run_gsdmm, run_gsdmm_plus
from gsdmm.synth import GenSpec, generate_corpus

built = _native.Kernel(ctypes.CDLL(sys.argv[1]))


def on(kernel, crossover, fn):
    _native.kernel = lambda: kernel
    _native._CROSSOVER = crossover
    return fn()


configs = [RunConfig(k_max=40, alpha=alpha, iterations=2, seed=1)
           for alpha in (0.0, 0.1)]
configs.append(RunConfig(algorithm="gsdmm+", k_max=40, k_real=4, beta=0.05,
                         iterations=2, entropy_refreshes_per_sweep=5, seed=1))
for dist in ("fixed", "poisson"):
    corpus = generate_corpus(GenSpec(k=4, v=120, d=90, doc_len=6,
                                     length_dist=dist, seed=3))[0]
    csr = corpus.token_csr
    for crossover in (-1, 1000, 20):  # every document sparse, dense, both
        for cfg in configs:
            run = run_gsdmm_plus if cfg.algorithm == "gsdmm+" else run_gsdmm
            (a, state, trace), (b, _, ref) = (
                on(k, crossover, lambda: run(corpus, cfg)) for k in (built, None))
            assert np.array_equal(a, b), (dist, crossover, cfg)
            assert [r.moved_docs for r in trace.records] == \\
                [r.moved_docs for r in ref.records]
            assert trace.merge_log == ref.merge_log
            if cfg.algorithm == "gsdmm+":  # pruned in the first sweep
                assert trace.records[0].active_clusters < cfg.k_max
            state.validate(require_nonempty=cfg.algorithm == "gsdmm+")
            for got, want in zip(built.cells(state),
                                 model._nonzero_cells(state)):
                assert np.array_equal(got, want)
            lo, hi = csr.word_ptr[0], csr.word_ptr[1]
            words, counts = csr.words[lo:hi], csr.counts[lo:hi]
            state.remove_doc(0, words, counts, int(counts.sum()))
            for weights in (UniformBeta(0.1), word_entropy(state)):
                got = on(built, crossover, lambda: built.log_scores(
                    state, words, counts, weights))
                assert np.allclose(got, cluster_log_scores(
                    state, words, counts, weights), rtol=1e-12, atol=1e-9)

    # detached documents join 3 seeded clusters at a large alpha: the
    # occupied count rises past the crossover inside the call
    rising = []
    for step in (built.sweep, sampler._numpy_steps):
        joined = ModelState.for_corpus(corpus, 40, 30.0)
        joined.add_docs(csr, np.arange(3), np.arange(3))
        order = np.arange(3, len(corpus))
        on(built, 20, lambda: step(joined, csr, order,
                                   np.random.default_rng(4).random(len(order)),
                                   UniformBeta(5.0), False))
        joined.validate()
        rising.append(joined)
    assert rising[0].nonempty_count() > 20
    for name in ("assignments", "m", "n", "wz"):
        assert np.array_equal(getattr(rising[0], name), getattr(rising[1], name))
    for got, want in zip(built.cells(rising[0]), model._nonzero_cells(rising[0])):
        assert np.array_equal(got, want)

# the count reads of folds and merges: every (word, cluster) of the last
# state against the numpy probe
words, clusters = (a.ravel() for a in np.meshgrid(
    np.arange(state.V), np.arange(state.k_max), indexing="ij"))
slots = state._probe(words, clusters)
assert np.array_equal(built.counts(state, words, clusters),
                      np.where(slots >= 0, state.cell_n[slots], 0))

# two bindings at once, each call against the numpy reference on a copy
order = np.arange(len(corpus))
uniforms = np.random.default_rng(6).random(len(corpus))


def seeded(k_max):
    fresh = ModelState.for_corpus(corpus, k_max, 0.1)
    fresh.add_docs(csr, order, order % k_max)
    return fresh


def sweep(state, kernel):
    step = sampler._numpy_steps if kernel is None else kernel.sweep
    on(kernel, 20, lambda: step(state, csr, order, uniforms,
                                UniformBeta(0.1), False))


def same(a, b):
    for name in ("assignments", "m", "n", "wz"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


pair = [seeded(40), seeded(12)]
refs = [s.copy() for s in pair]
lo, hi = csr.word_ptr[0], csr.word_ptr[1]
words, counts, to = csr.words[lo:hi], csr.counts[lo:hi], np.full(hi - lo, 3)
for _ in range(2):
    for s, r in zip(pair, refs):
        sweep(s, built)
        sweep(r, None)
    for s, r in zip(pair, refs):
        for got, want in zip(built.cells(s), model._nonzero_cells(r)):
            assert np.array_equal(got, want)
        built.add(s, words, to, counts)
        r._add_counts(words, to, counts.astype(np.int64))
    for s, r in zip(pair, refs):
        slots = r._probe(words, to)
        assert np.array_equal(built.counts(s, words, to),
                              np.where(slots >= 0, r.cell_n[slots], 0))
        built.add(s, words, to, -counts)
        r._add_counts(words, to, -counts.astype(np.int64))
for s, r in zip(pair, refs):
    s.validate()
    same(s, r)

# copies bind their own arrays, and a replaced array is bound anew
before = [s.copy() for s in pair]
for twin in (pair[0].copy(), copy.deepcopy(pair[0])):
    ref = twin.copy()
    sweep(twin, built)
    sweep(ref, None)
    same(twin, ref)
old_m = pair[1].m
pair[1].m = old_m.copy()
ref = pair[1].copy()
sweep(pair[1], built)
sweep(ref, None)
same(pair[1], ref)
assert np.array_equal(old_m, before[1].m)
for name in ("assignments", "m", "n", "table"):
    assert np.array_equal(getattr(pair[0], name), getattr(before[0], name))

# The byte scans read copies of their input in buffers of its exact size
# (a bytes object holds a NUL past its end), against the regex and the line
# loops on adversarial bytes.
for name in ("_count_runs", "_runs", "_count_bytes", "_pairs", "_vocabulary",
             "_assignments", "_lines"):
    def exact(raw, *args, fn=getattr(built, name)):
        buf = np.frombuffer(raw, dtype=np.uint8).copy()
        return fn(ctypes.cast(buf.ctypes.data, ctypes.c_char_p), *args)
    setattr(built, name, exact)


def exact_out(*args, fn=built._lines):
    # the formatter writes into a buffer of exactly the file's size (the
    # bytearray Kernel.lines passes holds a NUL past its end)
    *head, out, cap = args
    own = np.empty(len(out), dtype=np.uint8)
    size = fn(*head, own, cap)
    out[:] = own
    return size


built._lines = exact_out
_native.kernel = lambda: None
gen = np.random.default_rng(5)


def draw(pieces, most):
    return type(pieces[0])().join(pieces[i] for i in gen.integers(
        0, len(pieces), int(gen.integers(0, most + 1))))


def reference_runs(raw):
    seg, part, index, s = [], [], {}, 0
    for match in re.finditer(rb"[a-z]+|\\x00", raw):
        if match.group() == b"\\x00":
            s += 1
        else:
            seg.append(s)
            part.append(index.setdefault(match.group(), len(index)))
    return seg, part, [p.decode() for p in index]


run_pieces = [b"a", b"z", b"`", b"{", b"\\x00", b"\\xff", b"\\xed\\xa0\\x80", b"\\n",
              b" ", b"ab", b"abcabc", b"0"]
many = b" ".join(bytes([97 + a, 97 + b, 97 + c]) for a in range(26)
                 for b in range(26) for c in range(3))
many += b"\\x00" + many  # 2028 parts: the table doubles twice
for raw in [b"", b"a", b"\\x00", b"q" * 100_000, many,
            *(draw(run_pieces, 60) for _ in range(300))]:
    seg, part, parts = built.runs(raw)
    assert (seg.tolist(), part.tolist(), parts) == reference_runs(raw), raw

def loop(fn, *args):
    try:
        return fn(*args)
    except archive.MalformedRecord:
        return None


pair_pieces = ["0", "12", ":", " ", "\\x0b", "\\x1f", "\\t", "\\r", "a", "\\u0665",
               "1:2 ", "3:45 ", "1:2 ", "3:45 ", "9" * 19, "1" * 18 + ":1 "]
for _ in range(300):
    text = "".join(("d%d\\tx\\t" % i if gen.random() < 0.9 else "")
                   + draw(pair_pieces, 8) + "\\n" for i in range(int(gen.integers(0, 5))))
    want = loop(archive._documents_loop, text, 50)
    try:
        got = built.pairs(text.encode())
    except OverflowError:
        continue
    got = None if got is None else archive._checked(text, got, 50)
    assert (got is None) == (want is None), text
    if got is not None:
        assert got[:2] == want[:2], text
        assert all(np.array_equal(a, b) for a, b in zip(got[2:], want[2:])), text
assert built.pairs(b"d\\tx\\t1:2") is None  # no line feed at its end

id_forms = ["{}", "{}", "{}", "0{}", "+{}", "", "{}1", "9" * 19, "{}\\t"]
word_pieces = ["w", "", "\\t", "\\x00", "é"]
df_pieces = ["0", "7", "123", "9" * 18, "9" * 19, "a", " ", "\\u0663", "\\t"]
for _ in range(300):
    text = "".join(id_forms[gen.integers(len(id_forms))].format(i) + "\\t"
                   + draw(word_pieces, 2) + "\\t" + draw(df_pieces, 2) + "\\n"
                   for i in range(int(gen.integers(0, 6))))
    want = loop(archive._vocabulary_loop, text)
    try:
        got = built.vocabulary(text.encode())
    except OverflowError:
        continue
    assert (got is None) == (want is None), text
    assert got is None or got.tolist() == want[1], text
assert built.vocabulary(b"0\\tw\\t12") is None  # no line feed at its end

cluster_pieces = ["d", "é", " ", ",", "\\n", "\\r", "\\x0c", "-", "+", "\\u0665",
                  "0", "7", "12", "0" * 20, "9" * 18, "1" * 19, "9" * 19,
                  "d,1\\n", "e,0\\n", "f,42\\n", "d,1\\n", "e,0\\n", "f,42\\n", "g,3\\r\\n"]
for _ in range(400):
    body = draw(cluster_pieces, 10)
    body += "\\n" if body and not body.endswith("\\n") else ""
    want = loop(archive._assignments_loop, body)
    try:
        got = built.assignments(body.encode())
    except OverflowError:
        continue
    ids = archive._fields(body, 2, ",")[0]
    if got is not None and len(set(ids)) == len(ids):  # read_assignments' rows
        assert list(zip(ids, got.tolist())) == want, body
assert built.assignments(b"d,1") is None  # no line feed at its end

values = np.array([0, 1, 9, 10, 99, 100, 12345, -1, -10, 2 ** 31 - 1,
                   2 ** 63 - 1, -2 ** 63, 10 ** 18, -10 ** 17], dtype=np.int64)
field_pieces = ["a", "é", "中", "", "x y", "-", "0"]
for _ in range(300):
    sep, per_line = [("\\t", 2), (",", 1), ("\\t", 1), (",", 3)][gen.integers(4)]
    n_lines = int(gen.integers(0, 6))
    prefix = "".join(draw(field_pieces, 3) + sep
                     for _ in range(n_lines * per_line))
    ptr = np.concatenate([[0], np.cumsum(gen.integers(0, 4, n_lines))])
    items = values[gen.integers(0, len(values), (int(ptr[-1]), int(gen.integers(1, 4))))]
    got = built.lines(prefix.encode(), sep, per_line, ptr, items)
    assert bytes(got) == archive._line_bytes(prefix, sep, per_line, ptr, items), prefix
    for bad in {prefix + "x", prefix[:-1], prefix + sep} - {prefix}:
        try:  # not one prefix per line
            built.lines(bad.encode(), sep, per_line, ptr, items)
        except ValueError:
            continue
        raise AssertionError(f"accepted the prefixes {bad!r}")
print("ok")
"""


class TestSanitized:
    def test_kernel_under_address_and_undefined_sanitizers(self, tmp_path):
        # gsdmm at alpha 0 and 0.1 and gsdmm+ with prunes, refreshes and a
        # merge, each with every call sparse and then dense, then the cells
        # and one document's scores on the final state. An out-of-bounds
        # access, a use after free or undefined behaviour aborts the process
        cc = shutil.which("cc") or shutil.which("gcc")
        runtime = subprocess.run([cc, "-print-file-name=libasan.so"],
                                 capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(runtime):  # the bare name: no runtime installed
            pytest.skip("no AddressSanitizer runtime for this compiler")
        lib = tmp_path / "sweep-sanitized.so"
        subprocess.run([cc, "-O1", "-g", "-fsanitize=address,undefined",
                        "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
                        str(_native.SOURCE), "-o", str(lib), "-lm"],
                       check=True, capture_output=True, timeout=300)
        src = Path(_native.__file__).resolve().parents[1]
        env = dict(os.environ, LD_PRELOAD=runtime, PYTHONPATH=str(src),
                   ASAN_OPTIONS="detect_leaks=0",
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(lib)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert proc.stdout.split() == ["ok"]


@pytest.fixture()
def fresh_cache(monkeypatch, tmp_path):
    """An empty kernel cache directory, and a kernel loaded anew."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "cache_dir", lambda: cache)
    _native.kernel.cache_clear()
    yield cache
    _native.kernel.cache_clear()


class TestBuild:
    def test_cached_build_is_reused(self, fresh_cache, monkeypatch):
        builds = []
        real = _native._compile
        monkeypatch.setattr(_native, "_compile",
                            lambda *a: builds.append(a) or real(*a))
        assert _native.kernel() is not None
        assert len(builds) == 1
        assert [p.name[:6] for p in fresh_cache.iterdir()] == ["sweep-"]
        assert fresh_cache.stat().st_mode & 0o777 == 0o700
        _native.kernel.cache_clear()
        assert _native.kernel() is not None
        assert len(builds) == 1  # loaded from the cache

    def test_cached_build_loads_without_a_process(self, fresh_cache, monkeypatch):
        assert _native.kernel() is not None
        _native.kernel.cache_clear()

        def refuse(*args, **kwargs):
            raise AssertionError(f"process started: {args}")

        monkeypatch.setattr(_native.subprocess, "run", refuse)
        assert _native.kernel() is not None

    def test_changed_compiler_file_gets_a_new_build(self, fresh_cache, monkeypatch,
                                                    tmp_path):
        real = shutil.which("cc") or shutil.which("gcc")
        stand_in = tmp_path / "bin" / "cc"
        stand_in.parent.mkdir()
        stand_in.write_text(f'#!/bin/sh\nexec "{real}" "$@"\n')
        stand_in.chmod(0o755)
        monkeypatch.setattr(_native.shutil, "which",
                            lambda name: str(stand_in) if name == "cc" else None)
        assert _native.kernel() is not None
        assert len(list(fresh_cache.iterdir())) == 1
        _native.kernel.cache_clear()
        st = stand_in.stat()
        os.utime(stand_in, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
        assert _native.kernel() is not None
        assert len(list(fresh_cache.iterdir())) == 2

    def test_shared_cache_directory_not_used(self, fresh_cache):
        fresh_cache.mkdir(mode=0o777)
        os.chmod(fresh_cache, 0o777)
        assert _native.kernel() is not None  # built privately instead
        assert list(fresh_cache.iterdir()) == []

    def test_fallback_when_build_fails(self, fresh_cache, monkeypatch):
        corpus, _, _, _ = generate_corpus(
            GenSpec(k=4, v=300, d=200, doc_len=8, beta_gen=0.01, seed=8))
        plain = RunConfig(k_max=20, iterations=3, seed=2)
        plus = RunConfig(algorithm="gsdmm+", k_max=20, k_real=4, beta=0.01,
                         iterations=3, seed=2)
        compiled = [run_gsdmm(corpus, plain), run_gsdmm_plus(corpus, plus)]

        def fail(cc, source, target):
            raise subprocess.CalledProcessError(1, [cc])

        monkeypatch.setattr(_native, "_compile", fail)
        monkeypatch.setattr(_native, "cache_dir", lambda: fresh_cache / "empty")
        _native.kernel.cache_clear()
        assert _native.kernel() is None
        fallback = [run_gsdmm(corpus, plain), run_gsdmm_plus(corpus, plus)]
        for (a, s, t), (a2, s2, t2) in zip(compiled, fallback):
            assert np.array_equal(a, a2)
            _assert_same_state(s, s2)
            assert [r.moved_docs for r in t.records] == \
                [r.moved_docs for r in t2.records]
            assert t.merge_log == t2.merge_log

    def test_compiles_without_warnings(self, tmp_path):
        # -Wconversion: every narrowing or sign change is written out
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            pytest.skip("no C compiler")
        proc = subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Wconversion",
                               "-Werror", "-shared", "-fPIC", str(_native.SOURCE),
                               "-o", str(tmp_path / "sweep.so"), "-lm"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_no_compiler_falls_back(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native.kernel() is None

    def test_import_builds_nothing(self, tmp_path):
        src = Path(_native.__file__).resolve().parents[1]
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(src))
        code = ("import gsdmm, gsdmm.cli, gsdmm.sampler, gsdmm._native as n; "
                "print(n.kernel.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "0"
        assert not (tmp_path / "gsdmm").exists()
