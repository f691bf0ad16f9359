"""The compiled sweep kernel against the numpy reference, its build and
cache, and the fallback to numpy when it cannot be built."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsdmm import _native, model, sampler
from gsdmm.corpus import TokenCSR
from gsdmm.errors import NonFiniteScore
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


@pytest.fixture()
def crossover():
    """The slot count above which the kernel scores sparsely: the production
    value, which the k <= 40 states here never pass, so they run dense. The
    *Sparse classes rerun their tests at 0, every document sparse."""
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
        cfg = RunConfig(k_max=40, alpha=alpha, beta=0.05,
                        entropy_refreshes_per_sweep=7)
        init = adaptive_init if prune_empty else random_init
        compiled = init(corpus, cfg, np.random.default_rng(3))
        reference = compiled.copy()
        rngs = np.random.default_rng(4), np.random.default_rng(4)
        weights = word_entropy(compiled, cfg.entropy_epsilon) if entropy \
            else UniformBeta(cfg.beta)
        for _ in range(5):
            moved = gibbs_sweep(compiled, corpus, weights, cfg, rngs[0],
                                prune_empty)
            moved_ref = _numpy(monkeypatch, lambda: gibbs_sweep(
                reference, corpus, weights, cfg, rngs[1], prune_empty))
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
                return word_entropy(state, csr=csr)

            rng = np.random.default_rng(22)
            order = rng.permutation(len(corpus))
            moved = steps(state, csr, order, rng.random(len(order)),
                          word_entropy(state, csr=csr) if entropy else weights,
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


class TestSweepMatchesNumpySparse(TestSweepMatchesNumpy):
    @pytest.fixture()
    def crossover(self):
        return 0


class TestSparseScoring:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("prune_empty", [False, True])
    @pytest.mark.parametrize("length_dist", ["fixed", "poisson"])
    def test_crossover_keeps_the_chain(self, monkeypatch, alpha, prune_empty,
                                       length_dist):
        # k_max 200 over 300 documents: random_init occupies about 155
        # clusters, past the production crossover. With fixed lengths n = 6 m,
        # so most clusters share their (m, n) with many others; with Poisson
        # lengths clusters share n but not m. The chain is the same with
        # every document sparse (0), with the production crossover, with no
        # bitmaps at all (above k_max) and on the numpy reference
        corpus, _, _, _ = generate_corpus(GenSpec(
            k=5, v=400, d=300, doc_len=6, length_dist=length_dist,
            beta_gen=0.05, seed=12))
        cfg = RunConfig(k_max=200, alpha=alpha, beta=0.05)
        init = random_init(corpus, cfg, np.random.default_rng(5))
        assert np.count_nonzero(init.m) > _native._CROSSOVER
        runs = []
        for crossover in (0, _native._CROSSOVER, cfg.k_max + 1, None):
            state, rng, moved = init.copy(), np.random.default_rng(6), []
            with monkeypatch.context() as mp:
                if crossover is None:
                    mp.setattr(_native, "kernel", lambda: None)
                else:
                    mp.setattr(_native, "_CROSSOVER", crossover)
                for _ in range(3):
                    moved.append(gibbs_sweep(state, corpus, UniformBeta(cfg.beta),
                                             cfg, rng, prune_empty))
            state.validate()
            runs.append((state, moved))
        for state, moved in runs[1:]:
            assert moved == runs[0][1]
            _assert_same_state(state, runs[0][0])
        if prune_empty:
            assert runs[0][0].k_active < cfg.k_max


def _fixed_length_corpus(d=300, seed=31):
    """Documents of 6 tokens each: a cluster's n is 6 m, so the occupied
    clusters fall into a few (m, n) classes of many members."""
    corpus, _, _, _ = generate_corpus(GenSpec(
        k=5, v=400, d=d, doc_len=6, length_dist="fixed", beta_gen=0.05,
        seed=seed))
    return corpus


def kernel_scores(state, words, counts, weights, crossover):
    """Kernel.log_scores with the given crossover (None: every document
    dense, no bitmaps)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_CROSSOVER",
                   state.k_max + 1 if crossover is None else crossover)
        return _native.kernel().log_scores(state, words, counts, weights)


class TestClassBookkeeping:
    """The sparse path scores one member per (m, n) class, so the classes
    must follow every count change: moves, prunes and the re-entries after
    an entropy refresh. Each chain here runs on the sparse path (production
    crossover, k_max 200), with every document dense (crossover above
    k_max, no bitmaps) and on the numpy reference. A large beta (gsdmm) or
    alpha (gsdmm+) gives the clusters that share no word with a document
    enough mass to be drawn, so a stale class shows in the chain."""

    PATHS = ("sparse", "dense", "numpy")

    @staticmethod
    def _on(path, monkeypatch, fn):
        with monkeypatch.context() as mp:
            if path == "numpy":
                mp.setattr(_native, "kernel", lambda: None)
            elif path == "dense":
                mp.setattr(_native, "_CROSSOVER", 10 ** 6)
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
            return word_entropy(state, csr=csr)

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
                lambda s=state: word_entropy(s, csr=corpus.token_csr),
                prune=True, refreshes=7)))
        for state, result in runs[1:]:
            assert result == runs[0][1]
            _assert_same_state(state, runs[0][0])
        state, (_, at_refresh) = runs[0]
        state.validate(require_nonempty=True)
        assert len(at_refresh) == 3 * 7
        assert at_refresh[0] > _native._CROSSOVER > state.k_active

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
                         for crossover in (0, None))
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
        for crossover in (0, None):
            with pytest.raises(NonFiniteScore) as err:
                kernel_scores(state, words, counts, table, crossover)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "clusters [4]" in messages[0]

    def test_sparse_scores_once_per_needed_class(self, monkeypatch):
        # the overlapping clusters 0-3, then one member of the classes
        # (1, 3), (3, 9) and (0, 0); the class (2, 6), all of whose members
        # share a word, gets no score. The kernel writes a score only for
        # what it scores, into the third k_max block of its float work space
        state, words, counts = self._overlapped_class_state()
        spaces = []

        def work(k_max, width):
            work, iwork = real_work(k_max, width)
            work[:] = np.nan
            spaces.append(work)
            return work, iwork

        real_work = _native._work
        monkeypatch.setattr(_native, "_work", work)
        kernel_scores(state, words, counts, UniformBeta(0.1), 0)
        written = ~np.isnan(spaces[0][2 * state.k_max:3 * state.k_max])
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
        return 0


def _bad_weights(kind, v):
    if kind == "zero_entropy":
        h = np.full(v, 0.5)
        table = EntropyTable(h=h, sum_h=float(h.sum()), epsilon=1e-9,
                             normalized=True)
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
        for run in (lambda f: f(), lambda f: _numpy(monkeypatch, f)):
            state = random_init(corpus, cfg, np.random.default_rng(0))
            with pytest.raises(NonFiniteScore):
                run(lambda: gibbs_sweep(state, corpus, weights, cfg,
                                        np.random.default_rng(1)))

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
        return 0


class TestCompiledCells:
    def test_refresh_lists_cells_in_c(self, kernel, monkeypatch):
        # a silent fallback to the numpy cells would hide the lost speed
        calls = []
        real = _native.Kernel.cells

        def spy(self, state, csr):
            calls.append(state.k_active)
            return real(self, state, csr)

        def numpy_cells(state, csr):
            raise AssertionError("the numpy cells ran beside a compiler")

        monkeypatch.setattr(_native.Kernel, "cells", spy)
        monkeypatch.setattr(model, "_occupied_cells", numpy_cells)
        cfg = RunConfig(algorithm="gsdmm+", k_max=20, k_real=4, beta=0.05,
                        iterations=2, entropy_refreshes_per_sweep=5, seed=3)
        run_gsdmm_plus(_noisy_topics(2), cfg)
        assert len(calls) == 1 + 2 * 5
        assert calls[0] == 20

    def test_rejects_mismatched_arrays(self, kernel):
        corpus = corpus_from_counts([{0: 1}, {1: 2}, {0: 2, 2: 1}], 3)
        csr = corpus.token_csr
        state = ModelState(3, 3, k_max=2, alpha=0.1)
        state.add_docs(csr, np.arange(3), [0, 1, 0])
        words, nz = kernel.cells(state, csr)
        assert words.tolist() == [0, 1, 2] and nz.tolist() == [3, 2, 1]
        other = corpus_from_counts([{0: 1}, {1: 1}], 2).token_csr
        with pytest.raises(ValueError):  # state sized for another corpus
            kernel.cells(state, other)
        narrow = ModelState(3, 2, k_max=2, alpha=0.1)
        with pytest.raises(ValueError):  # a word id outside the vocabulary
            kernel.cells(narrow, csr)
        stray = state.copy()
        stray.assignments[0] = 2
        with pytest.raises(ValueError):  # an assignment past k_active
            kernel.cells(stray, csr)
        start, docs, counts = csr.by_word
        for index in ((start[:-1], docs, counts),             # misses entries
                      (start[::-1].copy(), docs, counts),     # starts past 0
                      (np.array([0, 3, 1, 4]), docs, counts),  # falls
                      (start, docs + 5, counts),              # no such document
                      (start, docs[:-1], counts[:-1])):       # another corpus
            stale = TokenCSR(csr.word_ptr, csr.words, csr.counts, csr.tok_ptr)
            stale.__dict__["by_word"] = index
            with pytest.raises(ValueError):
                kernel.cells(state, stale)


# Run in a process of its own with the sanitizer runtime preloaded: the
# kernel built with AddressSanitizer and UndefinedBehaviorSanitizer
# (argv[1]) against the numpy reference, on dense and sparse documents.
_SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from gsdmm import _native, model
from gsdmm.model import UniformBeta, cluster_log_scores, word_entropy
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
    for crossover in (0, 1000):  # every document sparse, then dense
        for cfg in configs:
            run = run_gsdmm_plus if cfg.algorithm == "gsdmm+" else run_gsdmm
            (a, state, trace), (b, _, ref) = (
                on(k, crossover, lambda: run(corpus, cfg)) for k in (built, None))
            assert np.array_equal(a, b), (dist, crossover, cfg)
            assert [r.moved_docs for r in trace.records] == \\
                [r.moved_docs for r in ref.records]
            assert trace.merge_log == ref.merge_log
            for got, want in zip(built.cells(state, csr),
                                 model._occupied_cells(state, csr)):
                assert np.array_equal(got, want)
            lo, hi = csr.word_ptr[0], csr.word_ptr[1]
            words, counts = csr.words[lo:hi], csr.counts[lo:hi]
            state.remove_doc(0, words, counts, int(counts.sum()))
            for weights in (UniformBeta(0.1), word_entropy(state, csr=csr)):
                got = on(built, crossover, lambda: built.log_scores(
                    state, words, counts, weights))
                assert np.allclose(got, cluster_log_scores(
                    state, words, counts, weights), rtol=1e-12, atol=1e-9)
print("ok")
"""


class TestSanitized:
    def test_kernel_under_address_and_undefined_sanitizers(self, tmp_path):
        # gsdmm at alpha 0 and 0.1 and gsdmm+ with prunes, refreshes and a
        # merge, each with every document sparse and dense, then the cells
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
        cc = shutil.which("cc") or shutil.which("gcc")
        subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
                        str(_native.SOURCE), "-o", str(tmp_path / "sweep.so"),
                        "-lm"], check=True, capture_output=True, timeout=300)

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
