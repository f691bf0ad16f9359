"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Criteria 3, 4, 5, and 9 share one synthetic 8-topic corpus
and its two 10-seed run batches.
"""

import math
import time

import numpy as np
import pytest

from gsdmm import _native
from gsdmm.cli import main as cli_main
from gsdmm.evaluation import LabeledPartitionPair, accuracy, nmi
from gsdmm.merge import merge_to_k
from gsdmm.model import (
    UniformBeta,
    cluster_log_scores,
    conditional_distribution,
    doc_cluster_log_score,
    word_entropy,
)
from gsdmm.sampler import RunConfig, gibbs_sweep, random_init, run_gsdmm, run_gsdmm_plus
from gsdmm.synth import (
    GenSpec,
    generate_corpus,
    oracle_assignment_bruteforce,
    oracle_delta_ratio,
    oracle_enumerate_joint,
)

from conftest import corpus_from_counts, make_state, random_triple
from test_merge import _merge_fixture, _replay_check

SEEDS = range(10)


def report(number: int, description: str, ok: bool):
    print(f"\n[criterion {number:02d}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def corpus8():
    spec = GenSpec(k=8, v=2000, d=2000, doc_len=8, beta_gen=0.01, seed=123)
    corpus, labels, _, _ = generate_corpus(spec)
    return corpus, labels


@pytest.fixture(scope="module")
def gsdmm_runs(corpus8):
    corpus, labels = corpus8
    runs, t0 = [], time.perf_counter()
    for seed in SEEDS:
        cfg = RunConfig(algorithm="gsdmm", k_max=40, alpha=0.1, beta=0.1,
                        iterations=20, seed=seed, validate_every_sweep=True)
        assign, state, trace = run_gsdmm(corpus, cfg)
        runs.append((assign, state, trace))
    return runs, time.perf_counter() - t0, labels


@pytest.fixture(scope="module")
def plus_runs(corpus8):
    corpus, labels = corpus8
    runs, t0 = [], time.perf_counter()
    for seed in SEEDS:
        cfg = RunConfig(algorithm="gsdmm+", k_max=40, k_real=8, alpha=0.1,
                        beta=0.01, iterations=20, seed=seed,
                        entropy_refreshes_per_sweep=15,
                        validate_every_sweep=True)
        assign, state, trace = run_gsdmm_plus(corpus, cfg)
        runs.append((assign, state, trace))
    return runs, time.perf_counter() - t0, labels


def test_criterion_01_oracle_equivalence():
    gen = np.random.default_rng(1001)
    kernel = _native.kernel()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state, doc, weights, z = random_triple(gen)
        oracle = oracle_delta_ratio(doc, z, state, weights)
        # the scalar reference kernel, the numpy kernel (scored slots, then
        # the representative empty score spread) and the compiled kernel,
        # where it can be built, with the same arguments
        words = np.fromiter(doc.counts, dtype=np.int64)
        counts = np.fromiter(doc.counts.values(), dtype=np.int64)
        paths = [doc_cluster_log_score(doc, z, state, weights),
                 cluster_log_scores(state, words, counts, weights)[z]]
        if kernel is not None:
            paths.append(kernel.log_scores(state, words, counts, weights)[z])
        for log_score in paths:
            score = math.exp(log_score)
            if oracle == 0.0:
                assert score == 0.0
            else:
                worst = max(worst, abs(score - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    report(1, "scalar, production and compiled kernels vs delta-ratio oracle over "
              f"1000 triples (worst rel err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-9 and elapsed < 10)


def test_criterion_02_exact_enumeration():
    gen = np.random.default_rng(2002)
    t0 = time.perf_counter()
    worst = 0.0
    for fixture in range(20):
        d = int(gen.integers(3, 9))
        v = int(gen.integers(2, 7))
        k = int(gen.integers(2, 4))
        doc_counts = []
        for _ in range(d):
            n_words = int(gen.integers(1, min(3, v) + 1))
            words = gen.choice(v, size=n_words, replace=False)
            doc_counts.append({int(w): int(gen.integers(1, 3)) for w in words})
        corpus = corpus_from_counts(doc_counts, v)
        alpha = float(gen.choice([0.05, 0.1, 0.5]))
        if fixture % 2 == 0:
            weights = UniformBeta(float(gen.choice([0.01, 0.1, 1.0])))
        else:
            h = gen.uniform(0.05, 1.0, size=v)
            from gsdmm.model import EntropyTable
            weights = EntropyTable(h=h)
        joint = oracle_enumerate_joint(corpus, k, alpha, weights)
        for _ in range(3):
            assign = gen.integers(0, k, size=d)
            di = int(gen.integers(0, d))
            state = make_state([0] * k, np.zeros((k, v), dtype=int), alpha,
                               n_docs=d)
            for i, doc in enumerate(corpus.documents):
                if i == di:
                    continue
                words = np.fromiter(doc.counts.keys(), dtype=np.int64)
                counts = np.fromiter(doc.counts.values(), dtype=np.int64)
                state.add_doc(i, words, counts, doc.total_len, int(assign[i]))
            got = conditional_distribution(corpus.documents[di], state, weights)
            expected = joint.conditional(di, assign)
            worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.perf_counter() - t0
    report(2, f"conditional vs exact enumeration on 20 fixtures "
              f"(worst abs err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-9 and elapsed < 30)


def test_criterion_03_gsdmm_recovery(gsdmm_runs):
    runs, elapsed, labels = gsdmm_runs
    ks = [state.nonempty_count() for _, state, _ in runs]
    nmis = [nmi(LabeledPartitionPair.from_labels(a.tolist(), labels))
            for a, _, _ in runs]
    k_med = float(np.median(ks))
    nmi_med = float(np.median(nmis))
    report(3, f"gsdmm recovery (median k {k_med}, median nmi {nmi_med:.3f}, "
              f"{elapsed:.1f}s for 10 seeds)",
           8 <= k_med <= 12 and nmi_med >= 0.85 and elapsed < 60)


def test_criterion_04_gsdmm_plus_recovery(gsdmm_runs, plus_runs):
    g_runs, _, labels = gsdmm_runs
    p_runs, _, _ = plus_runs
    ks = [state.k_active for _, state, _ in p_runs]
    p_nmis = [nmi(LabeledPartitionPair.from_labels(a.tolist(), labels))
              for a, _, _ in p_runs]
    g_nmis = [nmi(LabeledPartitionPair.from_labels(a.tolist(), labels))
              for a, _, _ in g_runs]
    paired_wins = sum(p >= g for p, g in zip(p_nmis, g_nmis))
    k_med = float(np.median(ks))
    nmi_med = float(np.median(p_nmis))
    report(4, f"gsdmm+ recovery (median k {k_med}, median nmi {nmi_med:.3f}, "
              f"paired wins {paired_wins}/10)",
           k_med == 8 and nmi_med >= 0.90 and paired_wins >= 7)


def test_criterion_05_count_invariants(gsdmm_runs, plus_runs):
    # validate_every_sweep already asserted exact integer invariants after
    # every sweep of every run above; re-assert the final states here
    ok = True
    for runs, pruned in ((gsdmm_runs[0], False), (plus_runs[0], True)):
        for _, state, _ in runs:
            k = state.k_active
            ok &= int(state.m[:k].sum()) == state.D
            ok &= bool((state.nzw[:k].sum(axis=1) == state.n[:k]).all())
            if pruned:
                ok &= bool((state.n[:k] > 0).all())
    report(5, "exact count invariants after every sweep (validated in-run) "
              "and on final states", ok)


def test_criterion_06_accuracy_oracle():
    gen = np.random.default_rng(6006)
    exact = 0
    for _ in range(100):
        d = int(gen.integers(5, 60))
        pred = gen.integers(0, int(gen.integers(1, 7)), size=d)
        gold = gen.integers(0, int(gen.integers(1, 7)), size=d)
        pair = LabeledPartitionPair.from_labels(pred.tolist(), gold.tolist())
        exact += accuracy(pair) == oracle_assignment_bruteforce(pair)
    report(6, f"assignment accuracy equals brute force ({exact}/100 exact)",
           exact == 100)


def test_criterion_07_merge_correctness():
    gen = np.random.default_rng(7007)
    ok = True
    for _ in range(10):
        k = int(gen.integers(4, 11))
        k_real = int(gen.integers(1, k))
        state = _merge_fixture(gen, k=k, v=12)
        docs = int(state.m[:k].sum())
        tokens = int(state.n[:k].sum())
        per_word = state.nzw[:k].sum(axis=0).copy()
        before = state.copy()
        log = merge_to_k(state, k_real)
        _replay_check(before, k_real, log)  # greedy max at every step
        kk = state.k_active
        ok &= kk == k_real
        ok &= int(state.m[:kk].sum()) == docs
        ok &= int(state.n[:kk].sum()) == tokens
        ok &= bool(np.array_equal(state.nzw[:kk].sum(axis=0), per_word))
    report(7, "merging is greedy-maximal, conserving, and reaches k_real", ok)


def test_criterion_08_entropy_properties():
    gen = np.random.default_rng(8008)
    ok = True
    for _ in range(30):
        state, _, _, _ = random_triple(gen)
        h = word_entropy(state, epsilon=1e-9, normalized=True).h
        ok &= bool((h >= 0).all() and (h <= 1).all())
    # equal counts in every cluster: exactly 1.0
    uniform_state = make_state([1] * 4, [[6, 2]] * 4, alpha=0.1)
    ok &= word_entropy(uniform_state, 1e-9, True).h.tolist() == [1.0, 1.0]
    # word fully inside one of five clusters: epsilon-scale entropy
    eps = 1e-9
    solo_state = make_state([1, 1, 1, 1, 1],
                            [[10], [0], [0], [0], [0]], alpha=0.1)
    solo = word_entropy(solo_state, eps, True).h[0]
    ok &= 0 < solo <= 10 * eps
    report(8, f"entropy bounds, exact uniform maximum, degenerate tier "
              f"(solo word h {solo:.2e})", ok)


def test_criterion_09_determinism_byte_identical(corpus8, tmp_path):
    from gsdmm.cli import write_archive
    corpus, _ = corpus8
    archive = tmp_path / "archive"
    write_archive(corpus, archive)
    ok = True
    for algorithm, extra in (("gsdmm", ["--beta", "0.1"]),
                             ("gsdmm+", ["--beta", "0.01", "--kreal", "8"])):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{algorithm}_{attempt}"
            code = cli_main(["cluster", str(archive), str(out),
                             "--algorithm", algorithm, "--kmax", "40",
                             "--alpha", "0.1", "--iters", "20",
                             "--seed", "0", *extra])
            ok &= code == 0
            blobs.append((out / "assignments.csv").read_bytes())
        ok &= blobs[0] == blobs[1]
    report(9, "same-seed reruns produce byte-identical assignment files", ok)


def test_criterion_10_near_linear_scaling():
    # both states are built first and their timed sweeps interleaved, so a
    # slow spell of the host touches both sizes alike; medians of the
    # timed sweeps, after one warm-up sweep each, in CPU time, which other
    # processes on the host do not add to
    runs = {}
    for d in (5000, 10000):
        spec = GenSpec(k=10, v=3000, d=d, doc_len=8, beta_gen=0.01, seed=55)
        corpus, _, _, _ = generate_corpus(spec)
        cfg = RunConfig(algorithm="gsdmm", k_max=30, alpha=0.1, beta=0.1,
                        iterations=1, seed=0)
        state = random_init(corpus, cfg, np.random.default_rng(0))
        runs[d] = (state, corpus, cfg, np.random.default_rng(1), [])
    for rep in range(21):
        for state, corpus, cfg, rng, sweep_times in runs.values():
            t0 = time.process_time()
            gibbs_sweep(state, corpus, UniformBeta(cfg.beta), cfg, rng)
            if rep:  # the first sweep is warm-up
                sweep_times.append(time.process_time() - t0)
    times = {d: float(np.median(run[-1])) for d, run in runs.items()}
    ratio = times[10000] / times[5000]
    report(10, f"per-sweep time ratio at 2x documents: {ratio:.2f}",
           1.6 <= ratio <= 2.8)
