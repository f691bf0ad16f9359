"""Shared fixtures and state-construction helpers."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from gsdmm import _native
from gsdmm.corpus import Corpus, Document, Vocabulary
from gsdmm.model import EntropyTable, ModelState, UniformBeta

# The tests gate every change, so a property test draws the same examples on
# every run (a defect it finds is one the change under test brought), and
# writes no example database into the working tree.
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


@pytest.fixture(autouse=True, scope="session")
def _kernel_cache(tmp_path_factory):
    """Build the compiled kernel once per session, in a directory of the
    session's own, never in the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        _native.kernel.cache_clear()
        yield
    _native.kernel.cache_clear()


# the two paths of every compiled entry point: the kernel where it builds,
# and the numpy reference that runs where it does not
PATHS = ("compiled", "numpy")


@contextmanager
def kernel_path(path: str):
    """Within the block, the package runs the compiled kernel ("compiled")
    or, as where no compiler exists, its numpy references ("numpy"). Not a
    fixture, so that a property test can run each example on both."""
    if path == "compiled":
        yield
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "kernel", lambda: None)
        yield


def make_state(m_counts, nzw, alpha, k_max=None, n_docs=None) -> ModelState:
    """Build a consistent ModelState directly from count tables.

    Assignments are synthesized so validate() passes; the per-document
    token structure is irrelevant to the kernels under test.
    """
    m = np.asarray(m_counts, dtype=np.int64)
    nzw = np.asarray(nzw, dtype=np.int64)
    k = len(m)
    assert nzw.shape[0] == k
    d_total = int(m.sum()) if n_docs is None else n_docs
    state = ModelState(d_total, nzw.shape[1], k_max or k, alpha, k_active=k)
    state.m[:k] = m
    state.n[:k] = nzw.sum(axis=1)
    clusters, words = np.nonzero(nzw)
    state.add_counts(words, clusters, nzw[clusters, words])
    assignments = np.repeat(np.arange(k), m)
    state.assignments[: len(assignments)] = assignments
    return state


def make_doc(counts: dict[int, int], doc_id: str = "doc") -> Document:
    return Document(doc_id=doc_id, counts=dict(counts), gold_label=None)


def corpus_from_counts(doc_counts: list[dict[int, int]], vocab_size: int,
                       labels: list[str] | None = None) -> Corpus:
    """Corpus over an anonymous integer vocabulary, built directly."""
    id_to_word = tuple(f"word{w}" for w in range(vocab_size))
    df = np.zeros(vocab_size, dtype=np.int64)
    docs = []
    for i, counts in enumerate(doc_counts):
        for w in counts:
            df[w] += 1
        docs.append(Document(
            doc_id=f"d{i}",
            counts=dict(counts),
            gold_label=labels[i] if labels else None,
        ))
    return Corpus(
        documents=tuple(docs),
        vocabulary=Vocabulary(
            id_to_word=id_to_word,
            doc_freq=tuple(int(x) for x in df),
        ),
    )


def disjoint_corpus(n_topics: int, docs_per_topic: int, words_per_topic: int,
                    doc_len: int, seed: int = 0) -> Corpus:
    """Topics with fully disjoint vocabularies; gold label is the topic."""
    rng = np.random.default_rng(seed)
    vocab_size = n_topics * words_per_topic
    doc_counts, labels = [], []
    for t in range(n_topics):
        block = np.arange(t * words_per_topic, (t + 1) * words_per_topic)
        for _ in range(docs_per_topic):
            words = rng.choice(block, size=doc_len)
            uniq, cnt = np.unique(words, return_counts=True)
            doc_counts.append({int(w): int(c) for w, c in zip(uniq, cnt)})
            labels.append(f"t{t}")
    return corpus_from_counts(doc_counts, vocab_size, labels)


def random_triple(rng: np.random.Generator):
    """Random (state, doc, weighting) for oracle cross-checks."""
    k = int(rng.integers(1, 7))
    v = int(rng.integers(2, 41))
    nzw = rng.integers(0, 8, size=(k, v))
    m = rng.integers(0, 20, size=k)
    alpha = float(rng.choice([0.0, 0.05, 0.1, 1.0]))
    if alpha == 0.0 and (m == 0).any():
        m = m + 1  # keep the scored cluster selectable
    state = make_state(m, nzw, alpha)
    n_distinct = int(rng.integers(0, min(6, v) + 1))
    words = rng.choice(v, size=n_distinct, replace=False)
    counts = {int(w): int(rng.integers(1, 4)) for w in words}
    doc = make_doc(counts)
    if rng.random() < 0.5:
        weights = UniformBeta(float(rng.choice([1e-3, 0.01, 0.1, 1.0])))
    else:
        h = rng.uniform(1e-6, 1.0, size=v)
        weights = EntropyTable(h=h)
    z = int(rng.integers(0, k))
    return state, doc, weights, z


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
