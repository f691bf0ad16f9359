import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2

from gsdmm.corpus import TokenRules, build_corpus, read_dataset
from gsdmm.errors import InstanceTooLarge, NonPositiveArgument, TooManyClusters
from gsdmm.evaluation import LabeledPartitionPair
from gsdmm.model import UniformBeta, conditional_distribution
from gsdmm.synth import (
    GenSpec,
    generate_corpus,
    oracle_assignment_bruteforce,
    oracle_delta_ratio,
    oracle_enumerate_joint,
    write_jsonl,
)

from conftest import corpus_from_counts, make_doc, make_state


class TestGenerateCorpus:
    def test_single_cluster_labels(self):
        corpus, labels, _, _ = generate_corpus(GenSpec(k=1, v=10, d=7, seed=0))
        assert set(labels) == {"c0"}
        assert all(doc.gold_label == "c0" for doc in corpus.documents)

    def test_empty_corpus(self):
        corpus, labels, theta, phi = generate_corpus(GenSpec(k=2, v=5, d=0, seed=0))
        assert len(corpus) == 0 and labels == []
        assert theta.shape == (2,) and phi.shape == (2, 5)

    def test_reproducible_including_latents(self):
        spec = GenSpec(k=3, v=40, d=25, seed=99)
        c1, l1, t1, p1 = generate_corpus(spec)
        c2, l2, t2, p2 = generate_corpus(spec)
        assert np.array_equal(t1, t2) and np.array_equal(p1, p2)
        assert l1 == l2
        assert all(a.counts == b.counts for a, b in zip(c1.documents, c2.documents))

    def test_word_frequencies_match_phi(self):
        spec = GenSpec(k=2, v=1000, d=5000, doc_len=8, beta_gen=0.01, seed=42)
        corpus, labels, _, phi = generate_corpus(spec)
        for z in (0, 1):
            counts = np.zeros(spec.v)
            for doc, lab in zip(corpus.documents, labels):
                if lab == f"c{z}":
                    for w, c in doc.counts.items():
                        counts[w] += c
            emp = counts / counts.sum()
            tv = 0.5 * np.abs(emp - phi[z]).sum()
            assert tv <= 0.05

    def test_label_proportions_converge_to_theta(self):
        spec = GenSpec(k=8, v=50, d=10000, doc_len=4, seed=7)
        _, labels, theta, _ = generate_corpus(spec)
        counts = np.zeros(spec.k)
        for lab in labels:
            counts[int(lab[1:])] += 1
        stat = ((counts - spec.d * theta) ** 2 / (spec.d * theta)).sum()
        assert stat < chi2.ppf(0.999, spec.k - 1)

    def test_poisson_lengths_never_zero(self):
        spec = GenSpec(k=2, v=30, d=200, doc_len=2.0, length_dist="poisson", seed=3)
        corpus, _, _, _ = generate_corpus(spec)
        assert all(doc.total_len >= 1 for doc in corpus.documents)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GenSpec(k=0, v=5, d=5)
        with pytest.raises(ValueError):
            GenSpec(k=1, v=1, d=5)
        with pytest.raises(ValueError):
            GenSpec(k=1, v=5, d=5, doc_len=0)

    def test_jsonl_roundtrip_through_tokenizer(self, tmp_path):
        spec = GenSpec(k=2, v=30, d=40, doc_len=6, seed=11)
        corpus, _, _, _ = generate_corpus(spec)
        path = tmp_path / "synth.jsonl"
        write_jsonl(corpus, path)
        records = read_dataset(path, "jsonl")
        rebuilt = build_corpus(records, TokenRules(min_df=1))
        assert rebuilt.stats.D == corpus.stats.D
        # token mass survives the round trip
        assert sum(d.total_len for d in rebuilt.documents) == \
            sum(d.total_len for d in corpus.documents)

    def test_jsonl_bytes_pinned(self, tmp_path):
        # the benchmark builds its inputs through generate_corpus, so one
        # poisson-length spec's bytes are pinned: the rng calls and the
        # writer's word order must not drift
        spec = GenSpec(k=4, v=120, d=60, doc_len=6, length_dist="poisson", seed=11)
        corpus, _, _, _ = generate_corpus(spec)
        write_jsonl(corpus, tmp_path / "synth.jsonl")
        assert hashlib.sha256((tmp_path / "synth.jsonl").read_bytes()).hexdigest() \
            == "10b53dac4e0d950095f1783a44be06e20b2f0765b8f19cff91590c34dcd132bf"


class TestOracleDeltaRatio:
    def test_empty_document_returns_prior_numerator(self):
        state = make_state([3, 2], [[4, 1], [0, 2]], alpha=0.25)
        got = oracle_delta_ratio(make_doc({}), 0, state, UniformBeta(0.1))
        assert got == pytest.approx(3.25, rel=1e-12)

    def test_single_word_document_closed_form(self):
        # (n_w + beta) / (n_z + V*beta) * (m + alpha)
        state = make_state([3, 1], [[4, 0, 2, 1, 0], [1, 1, 1, 1, 1]], alpha=0.3)
        beta = 0.1
        got = oracle_delta_ratio(make_doc({0: 1}), 0, state, UniformBeta(beta))
        expected = (4 + beta) / (7 + 5 * beta) * (3 + 0.3)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_pseudocounts_rejected(self):
        state = make_state([1], [[1, 1]], alpha=0.1)
        table = UniformBeta(1.0)
        bad = np.array([1.0, -0.5])
        with pytest.raises(NonPositiveArgument):
            from gsdmm.synth import _pseudo_vector
            _pseudo_vector(type("W", (), {"h": bad})(), 2)  # noqa
        with pytest.raises(Exception):
            oracle_delta_ratio(make_doc({0: 1}), 5, state, table)


class TestJointEnumeration:
    def test_single_doc_symmetric(self):
        corpus = corpus_from_counts([{0: 1, 1: 2}], 3)
        joint = oracle_enumerate_joint(corpus, k=2, alpha=0.4,
                                       weights=UniformBeta(0.2))
        p = joint.conditional(0, np.array([0]))
        assert p.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_conditional_distribution(self, rng):
        corpus = corpus_from_counts(
            [{0: 2}, {0: 1, 1: 1}, {2: 2, 1: 1}, {2: 1}], 3)
        alpha, beta = 0.3, 0.05
        joint = oracle_enumerate_joint(corpus, k=2, alpha=alpha,
                                       weights=UniformBeta(beta))
        for trial in range(10):
            assign = rng.integers(0, 2, size=4)
            d = int(rng.integers(0, 4))
            expected = joint.conditional(d, assign)
            # build the matching collapsed state with doc d excluded
            state = make_state([0, 0], np.zeros((2, 3), dtype=int), alpha,
                               n_docs=4)
            state.assignments[:] = -1
            for i, doc in enumerate(corpus.documents):
                if i == d:
                    continue
                words = np.fromiter(doc.counts.keys(), dtype=np.int64)
                counts = np.fromiter(doc.counts.values(), dtype=np.int64)
                state.add_doc(i, words, counts, doc.total_len, int(assign[i]))
            got = conditional_distribution(corpus.documents[d], state,
                                           UniformBeta(beta))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_all_joints_finite(self):
        corpus = corpus_from_counts([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2)
        joint = oracle_enumerate_joint(corpus, k=3, alpha=0.5,
                                       weights=UniformBeta(0.1))
        assert np.isfinite(joint.log_joint).all()
        assert len(joint.log_joint) == 27

    def test_instance_too_large(self):
        corpus = corpus_from_counts([{0: 1}] * 21, 1)
        with pytest.raises(InstanceTooLarge):
            oracle_enumerate_joint(corpus, k=2, alpha=0.5,
                                   weights=UniformBeta(0.1))

    def test_alpha_zero_rejected(self):
        corpus = corpus_from_counts([{0: 1}], 1)
        with pytest.raises(NonPositiveArgument):
            oracle_enumerate_joint(corpus, k=2, alpha=0.0,
                                   weights=UniformBeta(0.1))


class TestAssignmentBruteforce:
    def test_identical(self):
        pair = LabeledPartitionPair.from_labels([0, 1, 2], [5, 6, 7])
        assert oracle_assignment_bruteforce(pair) == 1.0

    def test_constant_vs_three_equal_classes(self):
        pair = LabeledPartitionPair.from_labels([0] * 9, [0, 1, 2] * 3)
        assert oracle_assignment_bruteforce(pair) == pytest.approx(1 / 3)

    def test_too_many_clusters(self):
        pair = LabeledPartitionPair.from_labels(list(range(7)), [0] * 7)
        with pytest.raises(TooManyClusters):
            oracle_assignment_bruteforce(pair)
