"""The exact replacements of gsdmm+'s bookkeeping: the entropy table from
the count tables' occupied cells, the kernel's prune from the documents of
the moved cluster, and the merge over cell arrays with exact re-checks.
Each is held to the reference it replaced, bit for bit."""

import heapq
import shutil
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsdmm import _native, merge, model, sampler
from gsdmm.corpus import TokenCSR
from gsdmm.merge import (
    compute_icf,
    cosine,
    merge_to_k,
    tficf_vector,
)
from gsdmm.model import ModelState, UniformBeta, _nonzero_cells, word_entropy
from gsdmm.sampler import RunConfig, adaptive_init, run_gsdmm_plus

from conftest import corpus_from_counts, make_state

HAS_CC = shutil.which("cc") is not None or shutil.which("gcc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler")


def _topical(seed, n_topics=5, per_topic=24, words_per_topic=10):
    """Topical documents with a few random words mixed in; word 0 is
    common, so a detached document often holds it."""
    gen = np.random.default_rng(seed)
    v = n_topics * words_per_topic
    docs = []
    for t in range(n_topics):
        block = range(t * words_per_topic, (t + 1) * words_per_topic)
        for _ in range(per_topic):
            words = [*gen.choice(block, size=5), *gen.choice(v, size=2), 0]
            uniq, cnt = np.unique(words, return_counts=True)
            docs.append({int(w): int(c) for w, c in zip(uniq, cnt)})
    return corpus_from_counts(docs, v)


def _assert_same_table(got, want):
    np.testing.assert_array_equal(got.h, want.h)
    assert got.sum_h == want.sum_h


def _matrix_cells(state):
    """The nonzero counts of the active clusters as the scan of the dense
    matrix finds them: (words, clusters, counts), word-major with clusters
    ascending."""
    k = state.k_active
    words, clusters = np.nonzero(state.wz[:, :k])
    return words, clusters, state.wz[words, clusters]


def _scanned_entropy(state, *args):
    """word_entropy on the numpy path, its cells from the matrix scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "kernel", lambda: None)
        mp.setattr(model, "_nonzero_cells", _matrix_cells)
        return word_entropy(state, *args)


class TestEntropyFromCells:
    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_every_refresh_matches_the_scan(self, monkeypatch, compiled, alpha):
        if compiled and not HAS_CC:
            pytest.skip("no C compiler")
        if not compiled:
            monkeypatch.setattr(_native, "kernel", lambda: None)
        real = sampler.word_entropy
        seen = []

        def checked(state, epsilon, normalized):
            got = real(state, epsilon, normalized)
            _assert_same_table(got, _scanned_entropy(state, epsilon, normalized))
            seen.append((state.k_active, int((state.assignments < 0).sum())))
            return got

        monkeypatch.setattr(sampler, "word_entropy", checked)
        # at k_max 150 the kernel scores sparse until the occupied clusters
        # fall to _CROSSOVER, and most tables hold fewer slots than there
        # are active clusters, so the listing sorts their cells
        for k_max, corpus in ((40, _topical(3)), (150, _topical(3, per_topic=40))):
            seen.clear()
            for normalized in (True, False):
                cfg = RunConfig(algorithm="gsdmm+", k_max=k_max, k_real=5,
                                alpha=alpha, beta=0.05, iterations=3,
                                entropy_refreshes_per_sweep=9,
                                entropy_normalized=normalized, seed=2)
                _, state, _ = run_gsdmm_plus(corpus, cfg)
            ks = [k for k, _ in seen]
            assert len(seen) == 2 * (1 + 3 * 9)
            assert max(ks) == k_max > min(ks)  # refreshes across prunes
            assert {detached for _, detached in seen} == {0, 1}
            state.validate(require_nonempty=True)

    @pytest.mark.parametrize("normalized", [True, False])
    def test_detached_document_and_zero_counts(self, normalized):
        # document 0 holds word 0 and is detached, so its counts left the
        # tables; an entry of count 0, which no Corpus holds, adds no cell
        csr = _token_arrays([{0: 2, 3: 1}, {0: 1, 1: 2}, {1: 1, 2: 0, 4: 3},
                             {3: 2}, {4: 1}])
        state = ModelState(5, 5, k_max=6, alpha=0.1, k_active=3)
        state.add_docs(csr, np.arange(5), [0, 0, 1, 2, 2])
        d = 0
        lo, hi = csr.word_ptr[d], csr.word_ptr[d + 1]
        state.remove_doc(d, csr.words[lo:hi], csr.counts[lo:hi],
                         int(csr.tok_ptr[d + 1] - csr.tok_ptr[d]))
        assert state.assignments[d] == -1 and state.wz[0, 0] == 1
        _assert_same_table(word_entropy(state, 1e-9, normalized),
                           _scanned_entropy(state, 1e-9, normalized))

    def test_after_adaptive_init(self):
        corpus = _topical(8)
        cfg = RunConfig(algorithm="gsdmm+", k_max=30, beta=0.05)
        state = adaptive_init(corpus, cfg, np.random.default_rng(1))
        _assert_same_table(word_entropy(state), _scanned_entropy(state))


def _token_arrays(docs: list[dict[int, int]]) -> TokenCSR:
    """The token arrays of documents given as word id -> count, built
    directly: unlike a Corpus they may hold entries of count 0."""
    return TokenCSR.from_rows([list(doc) for doc in docs],
                              [list(doc.values()) for doc in docs])


def _cells_case(seed, n_docs, v, k_max, prunes, detached, sized):
    """The token arrays of documents over v words, some never used (word
    v - 1 among them when v > 1), with entries of count 0, which add no
    cell though no Corpus holds them, and a state of them: the documents
    spread over k_max clusters, then prunes clusters emptied and pruned
    (their documents moved to others), then up to detached documents
    detached. Sized, each word's table is sized from the documents that
    hold it, so most have fewer slots than clusters and their probe runs
    wrap; else every table has a slot for each of the k_max clusters."""
    gen = np.random.default_rng(seed)
    used = gen.choice(max(v - 1, 1), size=max((v - 1) * 2 // 3, 1), replace=False)
    docs = []
    for _ in range(n_docs):
        words = gen.choice(used, size=int(gen.integers(1, min(len(used), 5) + 1)),
                           replace=False)
        docs.append({int(w): int(gen.integers(0, 4)) for w in words})
    csr = _token_arrays(docs)
    state = ModelState(n_docs, v, k_max=k_max, alpha=0.1, doc_freq=np.bincount(
        csr.words, minlength=v) if sized else None)
    state.add_docs(csr, np.arange(n_docs), gen.integers(0, k_max, size=n_docs))

    def move(d, z):
        lo, hi = csr.word_ptr[d], csr.word_ptr[d + 1]
        total = int(csr.tok_ptr[d + 1] - csr.tok_ptr[d])
        if state.assignments[d] >= 0:
            state.remove_doc(d, csr.words[lo:hi], csr.counts[lo:hi], total)
        if z >= 0:
            state.add_doc(d, csr.words[lo:hi], csr.counts[lo:hi], total, z)

    for _ in range(min(prunes, k_max - 1)):
        z = int(gen.integers(0, state.k_active))
        members = np.flatnonzero(state.assignments == z)
        for d in members.tolist():
            move(d, -1)
        state.deactivate_cluster(z)
        for d in members.tolist():
            move(d, int(gen.integers(0, state.k_active)))
    state.validate()
    for d in gen.choice(n_docs, size=min(detached, n_docs), replace=False).tolist():
        move(d, -1)
    return state


# cases that hold each table shape the listing reads; see test_cells_cases
_CELLS_CASES = [
    dict(seed=1, n_docs=6, v=5, k_max=2, prunes=0, detached=1, sized=False),
    dict(seed=2, n_docs=30, v=40, k_max=2, prunes=1, detached=0, sized=True),
    dict(seed=3, n_docs=60, v=30, k_max=129, prunes=2, detached=3, sized=True),
    dict(seed=4, n_docs=80, v=60, k_max=200, prunes=0, detached=0, sized=False),
    dict(seed=5, n_docs=1, v=1, k_max=3, prunes=0, detached=1, sized=True),
    dict(seed=6, n_docs=14, v=20, k_max=9, prunes=3, detached=2, sized=True),
    dict(seed=7, n_docs=80, v=60, k_max=200, prunes=3, detached=4, sized=True),
]


def _cases(test):
    for case in _CELLS_CASES:
        test = example(**case)(test)
    return test


@needs_cc
@settings(derandomize=True, deadline=None, max_examples=120)
@_cases
@given(seed=st.integers(0, 2 ** 32 - 1), n_docs=st.integers(1, 80),
       v=st.integers(1, 60), k_max=st.integers(2, 200),
       prunes=st.integers(0, 3), detached=st.integers(0, 4),
       sized=st.booleans())
def test_compiled_cells_match_the_reference(seed, n_docs, v, k_max, prunes,
                                            detached, sized):
    state = _cells_case(seed, n_docs, v, k_max, prunes, detached, sized)
    got = _native.kernel().cells(state)
    # and both equal the scan of the count matrix
    for a, b, c in zip(got, _nonzero_cells(state), _matrix_cells(state)):
        assert a.dtype == b.dtype == c.dtype
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def test_cells_cases():
    """The explicit cases hold a cell off its home slot past its table's
    end (a wrapped probe run), a table with fewer slots than k_max but as
    many as k_active, so read in slot order up to k_active, and detached
    documents; prunes and detaches free cells by backward shifts."""
    wrapped = direct_below_kmax = detached = False
    for case in _CELLS_CASES:
        state = _cells_case(**case)
        caps = np.diff(state.cell_ptr)
        slots = np.flatnonzero(state.cell_z >= 0)
        words = state._slot_words(slots)
        at = slots - state.cell_ptr[words]
        home = state.cell_z[slots] & (caps[words] - 1)
        wrapped |= bool((at < home).any())
        direct_below_kmax |= bool(
            ((caps[words] >= state.k_active) & (caps[words] < state.k_max)).any())
        detached |= bool((state.assignments < 0).any())
    assert wrapped and direct_below_kmax and detached


@needs_cc
class TestKernelPrune:
    """The compiled prune moves the last cluster's cells document by
    document; ModelState.deactivate_cluster, which folds whole columns,
    is the reference."""

    # documents 1, 2 and 3 share words 1 and 4; each test puts them in the
    # last cluster and the document it moves alone in its cluster
    DOCS = [{0: 1, 5: 2}, {1: 2, 4: 1}, {1: 1, 4: 3, 6: 1}, {4: 1, 1: 1},
            {2: 2, 3: 1}, {7: 3}, {2: 1, 5: 1}]

    def _run(self, assign, d, u):
        corpus = corpus_from_counts(self.DOCS, 8)
        csr = corpus.token_csr
        k = max(assign) + 1
        compiled = ModelState(len(self.DOCS), 8, k_max=k + 2, alpha=0.1,
                              k_active=k)
        compiled.add_docs(csr, np.arange(len(assign)), assign)
        reference = compiled.copy()
        weights = UniformBeta(0.1)
        _native.kernel().sweep(compiled, csr, np.array([d]), np.array([u]),
                               weights, prune=True)
        lo, hi = csr.word_ptr[d], csr.word_ptr[d + 1]
        words, counts = csr.words[lo:hi], csr.counts[lo:hi]
        total = int(counts.sum())
        z = reference.remove_doc(d, words, counts, total)
        reference.deactivate_cluster(z)
        reference.add_doc(d, words, counts, total, int(compiled.assignments[d]))
        assert compiled.k_active == reference.k_active == k - 1
        for name in ("assignments", "m", "n", "wz"):
            np.testing.assert_array_equal(getattr(compiled, name),
                                          getattr(reference, name), name)
        compiled.validate(require_nonempty=True)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
    def test_first_cluster_takes_the_last(self, u):
        # z == 0: cluster 3's documents (sharing words) move into slot 0
        self._run([0, 3, 3, 3, 1, 2, 2], d=0, u=u)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
    def test_middle_cluster_takes_the_last(self, u):
        self._run([1, 3, 3, 3, 0, 2, 0], d=5, u=u)

    @pytest.mark.parametrize("u", [0.0, 0.5, 0.999])
    def test_last_cluster_pruned(self, u):
        # z == last: nothing moves, the slot is only retired
        self._run([0, 1, 1, 1, 2, 3, 2], d=5, u=u)


# -- merge ---------------------------------------------------------------

@dataclass(frozen=True)
class MergeCandidate:
    """A cluster pair queued by the heap-ordered reference merge, stale once
    either cluster's stamp moves on."""

    a: int
    b: int
    similarity: float
    stamp_a: int
    stamp_b: int

    def valid(self, alive: set[int], stamps: dict[int, int]) -> bool:
        return (self.a in alive and self.b in alive
                and stamps[self.a] == self.stamp_a
                and stamps[self.b] == self.stamp_b)


def test_candidate_staleness():
    cand = MergeCandidate(a=0, b=2, similarity=0.8, stamp_a=1, stamp_b=0)
    assert cand.valid({0, 2}, {0: 1, 2: 0})
    assert not cand.valid({0}, {0: 1})            # b merged away
    assert not cand.valid({0, 2}, {0: 2, 2: 0})   # a changed since queued


def reference_merge_to_k(state, k_real):
    """The heap-ordered merge merge_to_k replaced: every pair's cosine in a
    max-heap keyed (-similarity, a, b), version stamps invalidating the
    pairs of a merged cluster, whole count columns moved on merge and
    compaction."""

    def move_column(src, dst):
        column = state.nzw[src].astype(np.int64)
        words = np.flatnonzero(column)
        state.add_counts(words, dst, column[words])
        state.add_counts(words, src, -column[words])

    log = []
    if k_real == state.k_active:
        return log
    icf = compute_icf(state)
    alive = list(range(state.k_active))
    vectors = {z: tficf_vector(state, z, icf) for z in alive}
    stamps = {z: 0 for z in alive}
    heap = [(-cosine(vectors[a], vectors[b]), a, b, 0, 0)
            for i, a in enumerate(alive) for b in alive[i + 1:]]
    heapq.heapify(heap)
    remaining, alive_set = len(alive), set(alive)
    while remaining > k_real:
        neg_sim, a, b, sa, sb = heapq.heappop(heap)
        if not MergeCandidate(a, b, -neg_sim, sa, sb).valid(alive_set, stamps):
            continue
        state.m[a] += state.m[b]
        state.n[a] += state.n[b]
        move_column(b, a)
        state.assignments[np.flatnonzero(state.assignments == b)] = a
        state.m[b] = state.n[b] = 0
        alive_set.discard(b)
        del vectors[b], stamps[b]
        stamps[a] += 1
        vectors[a] = tficf_vector(state, a, icf)
        log.append((a, b, -neg_sim))
        remaining -= 1
        for other in alive_set - {a}:
            lo, hi = min(a, other), max(a, other)
            heapq.heappush(heap, (-cosine(vectors[a], vectors[other]), lo, hi,
                                  stamps[lo], stamps[hi]))
    for slot, z in enumerate(sorted(alive_set)):
        if slot != z:
            state.m[slot], state.n[slot] = state.m[z], state.n[z]
            move_column(z, slot)
            state.assignments[np.flatnonzero(state.assignments == z)] = slot
            state.m[z] = state.n[z] = 0
    state.k_active = len(alive_set)
    return log


def _counts(kind, gen, k, v):
    """Counts of k clusters, every row nonzero, over v words (v + k for
    "star"), of one of the shapes where the pair choice is delicate."""
    if kind == "random":
        nzw = gen.integers(0, 6, size=(k, v)) * (gen.random((k, v)) < 0.4)
    elif kind == "proportional":
        # groups of multiples of one row: cosine 1.0 after the clamp, so
        # (a, b) alone decides among them
        base = gen.integers(0, 4, size=(3, v)) * (gen.random((3, v)) < 0.5)
        base[:, 0] += 1
        nzw = base[gen.integers(0, 3, size=k)] * gen.integers(1, 5, size=(k, 1))
    elif kind == "near_tie":
        # large counts that differ by one here and there: cosines close to
        # one another and to 1
        nzw = np.tile(gen.integers(200, 400, size=v), (k, 1))
        nzw += gen.integers(0, 2, size=(k, v)) * (gen.random((k, v)) < 0.1)
    elif kind == "star":
        # one word shared by all, one word each: every pair ties, and a
        # merged cluster's cosines all change
        nzw = np.zeros((k, v + k), dtype=np.int64)
        nzw[:, 0] = 1
        nzw[np.arange(k), v + np.arange(k)] = 1
        return nzw
    elif kind == "permuted":
        # permutations of one row over words every cluster holds: equal
        # cosines whose products a matrix product sums in different orders
        base = gen.integers(1, 50, size=v)
        perms = [gen.permutation(v) for _ in range(3)]
        nzw = np.stack([base[perms[i]] for i in gen.integers(0, 3, size=k)])
        return nzw * gen.integers(1, 3, size=(k, 1))
    elif kind == "disjoint":
        # mostly no shared word: many pairs at cosine exactly 0
        nzw = np.zeros((k, v), dtype=np.int64)
        nzw[np.arange(k), gen.permutation(v)[:k] if v >= k
            else gen.integers(0, v, size=k)] = gen.integers(1, 5, size=k)
    else:
        raise ValueError(kind)
    nzw[np.arange(k), gen.integers(0, v, size=k)] += 1  # no empty cluster
    return nzw


@settings(derandomize=True, deadline=None, max_examples=150)
@example(seed=1, kind="disjoint", k=6, v=4, k_real=1, spare=0, detached=0)
@example(seed=2, kind="proportional", k=9, v=5, k_real=1, spare=1, detached=1)
@example(seed=3, kind="star", k=8, v=3, k_real=2, spare=0, detached=0)
@example(seed=4, kind="permuted", k=12, v=25, k_real=3, spare=2, detached=0)
@example(seed=5, kind="near_tie", k=10, v=20, k_real=4, spare=0, detached=2)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "proportional", "near_tie", "star",
                             "permuted", "disjoint"]),
       k=st.integers(2, 14), v=st.integers(1, 30), k_real=st.integers(1, 13),
       spare=st.integers(0, 3), detached=st.integers(0, 2))
def test_merge_matches_reference_heap(seed, kind, k, v, k_real, spare, detached):
    gen = np.random.default_rng(seed)
    k_real = min(k_real, k)
    m = gen.integers(1, 4, size=k)
    state = make_state(m, _counts(kind, gen, k, v), alpha=0.1, k_max=k + spare,
                       n_docs=int(m.sum()) + detached)
    reference = state.copy()
    log = merge_to_k(state, k_real)
    assert log == reference_merge_to_k(reference, k_real)
    assert state.k_active == reference.k_active == k_real
    for name in ("m", "n", "wz", "assignments"):
        np.testing.assert_array_equal(getattr(state, name),
                                      getattr(reference, name), name)


class TestMergeOnSampledStates:
    def test_after_adaptive_init(self):
        corpus = _topical(4, n_topics=6, per_topic=20)
        cfg = RunConfig(algorithm="gsdmm+", k_max=60, beta=0.05, seed=1)
        state = adaptive_init(corpus, cfg, np.random.default_rng(5))
        for k_real in (1, 6, 30):
            got, want = state.copy(), state.copy()
            assert merge_to_k(got, k_real) == reference_merge_to_k(want, k_real)
            for name in ("m", "n", "wz", "assignments"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name), name)
            got.validate(require_nonempty=True)

    def test_rechecks_only_near_the_best(self, monkeypatch):
        # well separated clusters: one exact cosine per step suffices
        calls = []
        real = merge.cosine
        monkeypatch.setattr(merge, "cosine",
                            lambda u, v: calls.append(1) or real(u, v))
        nzw = np.eye(8, dtype=np.int64) * 5
        nzw[:, 0] += np.arange(1, 9)  # distinct cosines through word 0
        state = make_state([1] * 8, nzw, alpha=0.1)
        log = merge_to_k(state, 4)
        assert len(log) == 4
        assert len(calls) < 28  # not every pair of 8
