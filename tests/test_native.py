"""The compiled sweep kernel against the numpy reference, its build and
cache, and the fallback to numpy when it cannot be built."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsdmm import _native, sampler
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
from test_model import _sparse_state

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


class TestCompiledScores:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_matches_scalar_on_every_slot(self, kernel, rng, alpha, entropy):
        for _ in range(20):
            state, doc, _, _ = _sparse_state(rng, alpha, max_count=12)
            if entropy:
                h = rng.uniform(1e-3, 1.0, size=state.V)
                weights = EntropyTable(h=h, sum_h=float(h.sum()), epsilon=1e-9,
                                       normalized=True)
            else:
                weights = UniformBeta(float(rng.choice([0.01, 0.1])))
            scores = kernel.log_scores(state, np.fromiter(doc.counts, np.int64),
                                       np.fromiter(doc.counts.values(), np.int32),
                                       weights)
            assert len(scores) == state.k_active
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
        word_rep = np.repeat(words, counts)
        occ = np.concatenate([np.arange(c, dtype=np.float64) for c in counts])
        ref = cluster_log_scores(state, word_rep, occ, 2000, weights)
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
        with pytest.raises(NonFiniteScore):
            cluster_log_scores(state, np.array([0, 1]), np.zeros(2), 2, weights)
        with pytest.raises(NonFiniteScore):
            kernel.log_scores(state, np.array([0, 1]), np.array([1, 1]), weights)
        # a document that avoids the bad word scores finite on both paths
        if kind == "zero_entropy":
            ok = make_doc({1: 2, 2: 1})
            words = np.fromiter(ok.counts, np.int64)
            counts = np.fromiter(ok.counts.values(), np.int32)
            got = kernel.log_scores(state, words, counts, weights)
            ref = [doc_cluster_log_score(ok, z, state, weights) for z in range(2)]
            assert np.allclose(got, ref, rtol=1e-12)

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
