import math

import numpy as np
import pytest

from gsdmm.corpus import Corpus, Document, Vocabulary
from gsdmm.errors import ConfigError, KMaxExceedsCorpus
from gsdmm.evaluation import LabeledPartitionPair, accuracy, nmi
from gsdmm.merge import merge_to_k
from gsdmm.model import UniformBeta, conditional_distribution, normalize_log_scores
from gsdmm.sampler import (
    RunConfig,
    _draw,
    adaptive_init,
    gibbs_sweep,
    random_init,
    run_gsdmm,
    run_gsdmm_plus,
)
from gsdmm.synth import GenSpec, generate_corpus

from conftest import corpus_from_counts, disjoint_corpus


def _labels(corpus):
    return [doc.gold_label for doc in corpus.documents]


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            RunConfig(k_max=0)
        with pytest.raises(ConfigError):
            RunConfig(k_max=5, k_real=6)
        with pytest.raises(ConfigError):
            RunConfig(iterations=0)
        with pytest.raises(ConfigError):
            RunConfig(algorithm="kmeans")
        with pytest.raises(ConfigError):
            RunConfig(beta=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig(seed=-1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "entropy_epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(**{field: value})


def test_token_total_beyond_int32_rejected():
    # each count fits int32 but the total of 2**31 does not; the check runs
    # before any per-token array is built, so nothing large is allocated
    corpus = Corpus(
        documents=(Document("d0", {0: 2 ** 30}), Document("d1", {0: 2 ** 30})),
        vocabulary=Vocabulary(("w",), (2,)),
    )
    for run, algorithm in ((run_gsdmm, "gsdmm"), (run_gsdmm_plus, "gsdmm+")):
        with pytest.raises(ConfigError, match="int32"):
            run(corpus, RunConfig(algorithm=algorithm, k_max=1))


class TestRandomInit:
    def test_single_cluster(self):
        corpus = disjoint_corpus(2, 10, 5, 4)
        cfg = RunConfig(k_max=1)
        state = random_init(corpus, cfg, np.random.default_rng(0))
        assert state.m[0] == len(corpus)
        state.validate()

    def test_deterministic_under_seed(self):
        corpus = disjoint_corpus(2, 10, 5, 4)
        cfg = RunConfig(k_max=7)
        a = random_init(corpus, cfg, np.random.default_rng(11))
        b = random_init(corpus, cfg, np.random.default_rng(11))
        assert np.array_equal(a.assignments, b.assignments)

    def test_occupancy_within_binomial_band(self):
        # 6-sigma band around D/k for binomial(D, 1/k)
        d, k = 10000, 500
        corpus = corpus_from_counts([{i % 50: 1} for i in range(d)], 50)
        state = random_init(corpus, RunConfig(k_max=k), np.random.default_rng(3))
        mu = d / k
        sigma = math.sqrt(d * (1 / k) * (1 - 1 / k))
        assert state.m[:k].max() <= mu + 6 * sigma
        assert state.m[:k].min() >= max(0, mu - 6 * sigma)
        state.validate()


class TestAdaptiveInit:
    def test_kmax_equals_corpus(self):
        corpus = disjoint_corpus(2, 5, 4, 3)
        cfg = RunConfig(algorithm="gsdmm+", k_max=len(corpus), beta=0.02)
        state = adaptive_init(corpus, cfg, np.random.default_rng(0))
        assert (state.m[: state.k_active] == 1).all()
        state.validate()

    def test_kmax_one_everyone_joins(self):
        corpus = disjoint_corpus(2, 5, 4, 3)
        cfg = RunConfig(algorithm="gsdmm+", k_max=1, beta=0.02)
        state = adaptive_init(corpus, cfg, np.random.default_rng(0))
        assert state.m[0] == len(corpus)

    def test_kmax_exceeds_corpus(self):
        corpus = disjoint_corpus(1, 3, 4, 3)
        with pytest.raises(KMaxExceedsCorpus):
            adaptive_init(corpus, RunConfig(k_max=4), np.random.default_rng(0))

    def test_two_families_separate(self):
        # restrict to seeds whose two founders land in different families,
        # then init must recover the family split almost always
        corpus = disjoint_corpus(2, 20, 10, 6, seed=5)
        gold = _labels(corpus)
        half = len(corpus) // 2
        cfg = RunConfig(algorithm="gsdmm+", k_max=2, beta=0.02)
        perfect = checked = 0
        seed = 0
        while checked < 10:
            rng = np.random.default_rng(seed)
            probe = rng.choice(len(corpus), size=2, replace=False)
            seed += 1
            if (probe[0] < half) == (probe[1] < half):
                continue
            checked += 1
            state = adaptive_init(
                corpus, cfg, np.random.default_rng(seed - 1))
            pair = LabeledPartitionPair.from_labels(
                state.assignments.tolist(), gold)
            perfect += nmi(pair) == 1.0
        assert perfect >= 9

    def test_family_conditional_is_decisive(self):
        # a family-A document overwhelmingly prefers the cluster holding
        # family-A documents
        corpus = disjoint_corpus(2, 20, 10, 6, seed=5)
        cfg = RunConfig(algorithm="gsdmm+", k_max=2, beta=0.02)
        state = adaptive_init(corpus, cfg, np.random.default_rng(1))
        doc = corpus.documents[0]
        words = np.fromiter(doc.counts.keys(), dtype=np.int64)
        counts = np.fromiter(doc.counts.values(), dtype=np.int64)
        z = state.remove_doc(0, words, counts, doc.total_len)
        p = conditional_distribution(doc, state, UniformBeta(cfg.beta))
        state.add_doc(0, words, counts, doc.total_len, z)
        assert p[z] > 0.999


class TestGibbsSweep:
    def test_fixed_point_moves_nothing(self):
        corpus = disjoint_corpus(2, 20, 8, 6, seed=2)
        cfg = RunConfig(k_max=2, alpha=0.1, beta=0.01)
        state = random_init(corpus, cfg, np.random.default_rng(0))
        # force the true partition, then sweep: near-deterministic
        # conditionals keep everything in place
        for d, doc in enumerate(corpus.documents):
            words = np.fromiter(doc.counts.keys(), dtype=np.int64)
            counts = np.fromiter(doc.counts.values(), dtype=np.int64)
            state.remove_doc(d, words, counts, doc.total_len)
            state.add_doc(d, words, counts, doc.total_len, 0 if d < 20 else 1)
        moved = gibbs_sweep(state, corpus, UniformBeta(cfg.beta), cfg,
                            np.random.default_rng(1))
        assert moved == 0
        state.validate()

    def test_single_document_conservation(self):
        corpus = corpus_from_counts([{0: 2, 1: 1}], 2)
        cfg = RunConfig(k_max=3, alpha=0.5)
        state = random_init(corpus, cfg, np.random.default_rng(0))
        gibbs_sweep(state, corpus, UniformBeta(0.1), cfg, np.random.default_rng(1))
        assert state.m[: state.k_active].sum() == 1
        state.validate()

    def test_prune_contract(self):
        # doc 0 sits alone in cluster 1 and is strongly pulled to cluster 0
        corpus = corpus_from_counts([{0: 3}] + [{0: 3}] * 5, 1)
        cfg = RunConfig(algorithm="gsdmm+", k_max=2, alpha=0.1, beta=0.01)
        state = random_init(corpus, cfg, np.random.default_rng(0))
        for d in range(6):
            words = np.array([0], dtype=np.int64)
            counts = np.array([3], dtype=np.int64)
            state.remove_doc(d, words, counts, 3)
            state.add_doc(d, words, counts, 3, 1 if d == 0 else 0)
        k_before = state.k_active
        gibbs_sweep(state, corpus, UniformBeta(cfg.beta), cfg,
                    np.random.default_rng(1))
        assert state.k_active == k_before - 1
        assert (state.n[: state.k_active] > 0).all()
        state.validate(require_nonempty=True)

    def test_gsdmm_plus_config_prunes(self):
        # the configuration alone sets pruning: a gsdmm+ sweep leaves no
        # active cluster empty, so the merge after it can run; the state's
        # sizes follow its arrays through the copy, the prunes and the merge
        corpus, _, _, _ = generate_corpus(GenSpec(k=4, v=300, d=200, seed=3))
        cfg = RunConfig(algorithm="gsdmm+", k_max=60)
        state = adaptive_init(corpus, cfg, np.random.default_rng(0))
        start = state.copy()
        gibbs_sweep(state, corpus, UniformBeta(cfg.beta), cfg,
                    np.random.default_rng(1))
        assert state.k_active < cfg.k_max
        state.validate(require_nonempty=True)
        pruned = state.copy()
        merge_to_k(state, 4)
        assert state.k_active == 4
        for s in (start, pruned, state):
            assert (s.D, s.V, s.k_max) == (len(s.assignments), *s.wz.shape) \
                == (len(corpus), corpus.vocabulary.size, cfg.k_max)


def _dense_reference_sweep(state, corpus, weights, rng, prune_empty):
    """One sweep that scores every active cluster with a dense cluster-major
    gather, as the sampler did before empty clusters shared one score.
    Returns the moved count and how many draws chose an empty cluster."""
    moved = fills = 0
    for d, (words, counts, word_rep, occ, total) in enumerate(corpus.token_views):
        z_old = state.remove_doc(d, words, counts, total)
        pruned = prune_empty and state.n[z_old] == 0
        if pruned:
            state.deactivate_cluster(z_old)
        k = state.k_active
        m, n = state.m[:k], state.n[:k]
        nzw = np.ascontiguousarray(state.nzw[:k], dtype=np.int64)
        with np.errstate(divide="ignore"):
            scores = np.log(m + state.alpha)
            scores = scores + np.log(nzw[:, word_rep] + (weights.beta + occ)[None, :]).sum(axis=1)
            scores -= np.log(n[:, None] + state.V * weights.beta
                             + np.arange(total, dtype=np.float64)[None, :]).sum(axis=1)
        z_new = _draw(rng, normalize_log_scores(scores))
        fills += state.m[z_new] == 0
        state.add_doc(d, words, counts, total, z_new)
        moved += pruned or z_new != z_old
    return moved, fills


class TestSweepMatchesDenseReference:
    """The sweep scores occupied clusters plus one representative empty
    cluster and rebuilds that set only when occupancy changes; its draws
    must equal, bit for bit, those of a sweep that scores every cluster."""

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("prune_empty", [False, True])
    def test_same_assignments(self, alpha, prune_empty):
        # topical documents with a few random words mixed in; a large alpha
        # keeps documents moving into empty clusters
        gen = np.random.default_rng(int(alpha * 10))
        docs = []
        for t in range(4):
            for _ in range(15):
                # over 8 tokens, where summing in another order than the
                # dense gather's word by word would change the last bits
                words = [*gen.choice(range(t * 8, t * 8 + 8), size=9),
                         *gen.choice(32, size=3)]
                uniq, cnt = np.unique(words, return_counts=True)
                docs.append({int(w): int(c) for w, c in zip(uniq, cnt)})
        corpus = corpus_from_counts(docs, 32)
        cfg = RunConfig(algorithm="gsdmm+" if prune_empty else "gsdmm",
                        k_max=40, alpha=alpha, beta=0.05)
        weights = UniformBeta(cfg.beta)
        init = adaptive_init if prune_empty else random_init
        fast = init(corpus, cfg, np.random.default_rng(3))
        ref = fast.copy()
        rng_fast, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        fills = 0
        for _ in range(5):
            moved = gibbs_sweep(fast, corpus, weights, cfg, rng_fast)
            moved_ref, fills_ref = _dense_reference_sweep(ref, corpus, weights,
                                                          rng_ref, prune_empty)
            assert moved == moved_ref
            assert np.array_equal(fast.assignments, ref.assignments)
            assert np.array_equal(fast.wz, ref.wz)
            assert fast.k_active == ref.k_active
            fast.validate(require_nonempty=prune_empty)
            fills += fills_ref
        if not prune_empty:
            assert fast.nonempty_count() < cfg.k_max
            assert (fills > 0) == (alpha > 0)  # empty clusters get chosen


class TestRunGsdmm:
    def test_two_topic_recovery(self):
        corpus = disjoint_corpus(2, 100, 50, 10, seed=9)
        gold = _labels(corpus)
        hits = 0
        for seed in range(10):
            cfg = RunConfig(algorithm="gsdmm", k_max=20, alpha=0.1, beta=0.1,
                            iterations=20, seed=seed, validate_every_sweep=True)
            assign, state, trace = run_gsdmm(corpus, cfg)
            pair = LabeledPartitionPair.from_labels(assign.tolist(), gold)
            hits += state.nonempty_count() == 2 and nmi(pair) == 1.0
        assert hits >= 9

    def test_single_sweep_trace(self):
        corpus = disjoint_corpus(2, 10, 5, 4)
        cfg = RunConfig(algorithm="gsdmm", k_max=4, iterations=1, seed=0)
        _, _, trace = run_gsdmm(corpus, cfg)
        assert len(trace) == 1
        with pytest.raises(ConfigError):
            RunConfig(iterations=0)

    def test_alpha_zero_fast_path_matches_tiny_alpha(self):
        corpus = disjoint_corpus(2, 30, 10, 6, seed=4)
        base = dict(algorithm="gsdmm", k_max=8, beta=0.05, iterations=10, seed=13)
        fast, state_fast, trace_fast = run_gsdmm(
            corpus, RunConfig(alpha=0.0, **base))
        slow, state_slow, trace_slow = run_gsdmm(
            corpus, RunConfig(alpha=1e-12, **base))
        assert np.array_equal(state_fast.assignments, state_slow.assignments)
        assert np.array_equal(fast, slow)
        assert [r.moved_docs for r in trace_fast.records] == \
            [r.moved_docs for r in trace_slow.records]

    def test_wrong_algorithm_rejected(self):
        corpus = disjoint_corpus(2, 5, 4, 3)
        with pytest.raises(ConfigError):
            run_gsdmm(corpus, RunConfig(algorithm="gsdmm+", k_max=2))


class TestRunGsdmmPlus:
    def test_merge_noop_when_already_at_k_real(self):
        corpus = disjoint_corpus(2, 30, 10, 6, seed=7)
        cfg = RunConfig(algorithm="gsdmm+", k_max=2, k_real=2, beta=0.02,
                        iterations=5, seed=0)
        _, state, trace = run_gsdmm_plus(corpus, cfg)
        assert state.k_active == 2
        assert not trace.merge_log
        assert trace.notes == []

    def test_deterministic_assignments_and_trace(self):
        corpus = disjoint_corpus(3, 20, 10, 6, seed=8)
        cfg = RunConfig(algorithm="gsdmm+", k_max=10, k_real=3, beta=0.01,
                        iterations=8, seed=21)
        a1, s1, t1 = run_gsdmm_plus(corpus, cfg)
        a2, s2, t2 = run_gsdmm_plus(corpus, cfg)
        assert np.array_equal(a1, a2)
        assert t1.to_csv() == t2.to_csv()
        assert t1.merge_log == t2.merge_log

    def test_merge_skipped_when_k_real_exceeds_active(self):
        # k_max == k_real == corpus size cannot be exceeded, so craft a tiny
        # corpus that collapses below k_real during sampling
        corpus = corpus_from_counts([{0: 3}] * 6, 1,
                                    labels=["a"] * 6)
        cfg = RunConfig(algorithm="gsdmm+", k_max=5, k_real=4, alpha=0.1,
                        beta=0.01, iterations=10, seed=1)
        _, state, trace = run_gsdmm_plus(corpus, cfg)
        if state.k_active < 4:
            assert trace.notes and "merge skipped" in trace.notes[0]

    def test_trace_has_metrics_with_gold_labels(self):
        corpus = disjoint_corpus(2, 15, 8, 5, seed=3)
        cfg = RunConfig(algorithm="gsdmm+", k_max=4, k_real=2, beta=0.02,
                        iterations=3, seed=5)
        _, _, trace = run_gsdmm_plus(corpus, cfg)
        assert all(r.acc is not None and r.nmi is not None
                   for r in trace.records)
        csv = trace.to_csv()
        assert csv.startswith("iteration,active_clusters,moved_docs,acc,nmi")


@pytest.mark.parametrize("algorithm", ["gsdmm", "gsdmm+"])
def test_trace_metrics_are_those_of_the_assignments(algorithm):
    # the last record holds, to the last bit, ACC and NMI of the returned
    # assignments as from_labels numbers them (gold densified once per run)
    run = run_gsdmm if algorithm == "gsdmm" else run_gsdmm_plus
    for seed in range(1, 7):
        corpus, _, _, _ = generate_corpus(
            GenSpec(k=20, v=1500, d=1000, doc_len=8, beta_gen=0.01, seed=seed))
        cfg = RunConfig(algorithm=algorithm, k_max=40, beta=0.02, iterations=2,
                        seed=seed)
        assign, _, trace = run(corpus, cfg)
        pair = LabeledPartitionPair.from_labels(
            assign.tolist(), [doc.gold_label for doc in corpus.documents])
        assert trace.records[-1].acc == accuracy(pair)
        assert trace.records[-1].nmi == nmi(pair)
