"""Gibbs sampling driver: initialization, sweeps, pruning, entropy refresh.

One driver runs both samplers; the algorithm sets the initialization, the
word weights, pruning and the merge. The classic sampler starts from a
uniform random assignment and keeps emptied clusters selectable; they all
share one score, computed once per document from a representative empty
cluster, which is -inf when alpha == 0. The enhanced sampler seeds clusters
from sampled documents, prunes emptied clusters with index compaction,
reweights words by entropy on a fixed refresh schedule, and merges down to
a target cluster count afterwards.

Randomness discipline: one seed feeds two independent generator streams,
stream 0 for initialization and stream 1 for sweeps, so instrumentation
added between phases cannot perturb sampling. Each document step consumes
one uniform; a run of steps takes its uniforms from one rng.random(n) call,
which yields the same values as n calls of rng.random().

The document steps of gibbs_sweep and adaptive_init go through one
interface, _steps. They run in one compiled C kernel (see _native) when the
system compiler can build it, and otherwise in the numpy reference kept
here, which takes the kernel's arguments and which the tests hold the
kernel to: identical assignments and counts, scores within 1e-9; both draw
from exp(score - max) with the same arithmetic. A refresh reads the
occupied count cells from the count tables, in C when the kernel is built
(see word_entropy); its arithmetic and merging stay in numpy on both
paths.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np
# numpy 2 loads numpy.random lazily; load it at import, not inside the first run
import numpy.random  # noqa: F401

from . import _native
from .corpus import Corpus
from .errors import ConfigError, KMaxExceedsCorpus, NonFiniteScore
from .evaluation import LabeledPartitionPair, _densify, accuracy, nmi
from .merge import MergeLog, merge_to_k
from .model import (
    EntropyTable,
    ModelState,
    UniformBeta,
    WeightingScheme,
    _slot_log_scores,
    _tokens,
    relative_weights,
    scored_slots,
    word_entropy,
)

__all__ = [
    "GSDMM",
    "GSDMM_PLUS",
    "RunConfig",
    "SweepRecord",
    "SweepTrace",
    "random_init",
    "adaptive_init",
    "gibbs_sweep",
    "run_gsdmm",
    "run_gsdmm_plus",
]

log = logging.getLogger("gsdmm")

GSDMM = "gsdmm"
GSDMM_PLUS = "gsdmm+"


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = GSDMM
    k_max: int = 500
    k_real: int | None = None
    alpha: float = 0.1
    beta: float = 0.1
    iterations: int = 20
    seed: int = 0
    entropy_refreshes_per_sweep: int = 15
    entropy_epsilon: float = 1e-9
    entropy_normalized: bool = True
    validate_every_sweep: bool = False

    def __post_init__(self):
        if self.algorithm not in (GSDMM, GSDMM_PLUS):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.k_real is not None and not 1 <= self.k_real <= self.k_max:
            raise ConfigError(
                f"need 1 <= k_real <= k_max, got k_real={self.k_real}, "
                f"k_max={self.k_max}"
            )
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("alpha", "beta", "entropy_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.entropy_refreshes_per_sweep < 0:
            raise ConfigError("entropy_refreshes_per_sweep must be >= 0")
        if self.entropy_epsilon <= 0:
            raise ConfigError("entropy_epsilon must be > 0")


@dataclass
class SweepRecord:
    """One sweep's counts, and its ACC and NMI against the gold labels
    (None without them). The record keeps the nonzero cells of the sweep's
    contingency table, rows (cluster, label, documents) with clusters
    numbered by first appearance; the metrics are computed from them when
    first read, so a run whose trace nobody reads never computes them."""

    iteration: int
    active_clusters: int
    moved_docs: int
    cells: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def acc(self) -> float | None:
        return None if self.cells is None else accuracy(self._pair())

    @cached_property
    def nmi(self) -> float | None:
        return None if self.cells is None else nmi(self._pair())

    def _pair(self) -> LabeledPartitionPair:
        """A labelling with the recorded contingency table: the same
        confusion matrix, hence the same metrics to the last bit."""
        pred, gold, count = self.cells.T
        return LabeledPartitionPair(np.repeat(pred, count), np.repeat(gold, count))


@dataclass
class SweepTrace:
    records: list[SweepRecord] = field(default_factory=list)
    merge_log: MergeLog | None = None
    notes: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        lines = ["iteration,active_clusters,moved_docs,acc,nmi"]
        for r in self.records:
            acc = "" if r.acc is None else f"{r.acc:.6f}"
            nm = "" if r.nmi is None else f"{r.nmi:.6f}"
            lines.append(f"{r.iteration},{r.active_clusters},{r.moved_docs},{acc},{nm}")
        return "\n".join(lines) + "\n"


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    init_ss, sweep_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(sweep_ss)


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """Sample an index with probability proportional to the non-negative
    weights p, normalized or not; zero-mass entries are never selected.

    Step for step the compiled kernel's draw: a sequential cumulation, u
    times its total, the first cumulated value above that, a clamp to the
    last index and a back-off from zero-width entries.
    """
    cum = np.cumsum(p)
    if not (np.isfinite(cum[-1]) and cum[-1] > 0):
        raise NonFiniteScore(f"degenerate normalizer {cum[-1]}")
    z = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    z = min(z, len(p) - 1)
    while p[z] == 0.0:  # guards the clamp against a trailing zero-width slot
        z -= 1
    return z


def random_init(corpus: Corpus, cfg: RunConfig, rng: np.random.Generator) -> ModelState:
    """Assign every document to one of k_max clusters uniformly at random."""
    state = ModelState.for_corpus(corpus, cfg.k_max, cfg.alpha)
    draws = rng.integers(0, cfg.k_max, size=len(corpus))
    state.add_docs(corpus.token_csr, np.arange(len(corpus)), draws)
    return state


def adaptive_init(corpus: Corpus, cfg: RunConfig, rng: np.random.Generator) -> ModelState:
    """Seed each cluster with one sampled document, then let the remaining
    documents join by their conditional probability.

    Seeds are distinct (sampled without replacement). The state grows as
    documents join, so later documents see the clusters the earlier ones
    built up. The joins are the sweep's document steps for the unseeded
    documents, which have no cluster to leave.
    """
    d_total = len(corpus)
    if cfg.k_max > d_total:
        raise KMaxExceedsCorpus(f"k_max={cfg.k_max} exceeds corpus size {d_total}")
    state = ModelState.for_corpus(corpus, cfg.k_max, cfg.alpha)
    seeds = rng.choice(d_total, size=cfg.k_max, replace=False)
    state.add_docs(corpus.token_csr, seeds, np.arange(cfg.k_max))
    seeded = np.zeros(d_total, dtype=bool)
    seeded[seeds] = True
    _steps(state, corpus, np.flatnonzero(~seeded), rng, UniformBeta(cfg.beta),
           prune=False)
    return state


def gibbs_sweep(
    state: ModelState,
    corpus: Corpus,
    weights: WeightingScheme,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> int:
    """One full pass reseating every document; returns how many moved.

    Per document: detach its counts, prune its cluster if that emptied it
    and cfg.algorithm is gsdmm+ (compacting indices), refresh the entropy
    table when the schedule says so, then sample a new cluster from the
    conditional and re-attach. The entropy refresh positions are the
    multiples of ceil(D / refreshes), so a sweep refreshes at most
    cfg.entropy_refreshes_per_sweep times.
    """
    d_total = len(corpus)
    if isinstance(weights, EntropyTable) and cfg.entropy_refreshes_per_sweep > 0:
        refresh_step = math.ceil(d_total / cfg.entropy_refreshes_per_sweep)
    else:
        refresh_step = 0
    return _steps(
        state, corpus, np.arange(d_total), rng, weights,
        cfg.algorithm == GSDMM_PLUS, refresh_step,
        lambda: word_entropy(state, cfg.entropy_epsilon, cfg.entropy_normalized))


def _steps(state: ModelState, corpus: Corpus, order: np.ndarray,
           rng: np.random.Generator, weights: WeightingScheme, prune: bool,
           refresh_step: int = 0, refresh=None) -> int:
    """Kernel.sweep's document steps, with the uniforms drawn from rng in
    one call, on the compiled kernel when it can be built and on the numpy
    reference otherwise; returns how many documents moved."""
    kernel = _native.kernel()
    step = _numpy_steps if kernel is None else kernel.sweep
    return step(state, corpus.token_csr, order, rng.random(len(order)), weights,
                prune, refresh_step, refresh)


@np.errstate(divide="ignore", invalid="ignore")  # see model._slot_log_scores
def _numpy_steps(state: ModelState, csr, order: np.ndarray, uniforms: np.ndarray,
                 weights: WeightingScheme, prune: bool, refresh_step: int = 0,
                 refresh=None) -> int:
    """The reference for Kernel.sweep, with its arguments and result: the
    document steps in numpy, one scoring call per document.

    It scores the occupied clusters and one representative empty cluster,
    whose score one take spreads over every empty cluster. That slot set
    changes only when a removal empties a cluster or an addition fills one,
    and is rebuilt only then. The corpus tokens and their offsets are
    resolved once per weighting, on entry and after each refresh, and
    sliced per document.
    """
    wp, tp = csr.word_ptr.tolist(), csr.tok_ptr.tolist()
    # _draw takes a generator; this one hands out the given uniforms in turn
    draws = SimpleNamespace(random=iter(uniforms.tolist()).__next__)
    word_rep, offsets, ctot = _tokens(csr.words, csr.counts, weights, state.V)
    slots, row_of = scored_slots(state)
    moved = 0
    for pos, d in enumerate(order.tolist()):
        words, counts = csr.words[wp[d]:wp[d + 1]], csr.counts[wp[d]:wp[d + 1]]
        s, t = tp[d], tp[d + 1]
        z_old, pruned = int(state.assignments[d]), False
        if z_old >= 0:
            state.remove_doc(d, words, counts, t - s)
            if not (state.m[z_old] or state.n[z_old]):
                if prune:
                    state.deactivate_cluster(z_old)
                    pruned = True
                slots, row_of = scored_slots(state)
        if refresh_step and pos % refresh_step == 0:
            word_rep, offsets, ctot = _tokens(csr.words, csr.counts, refresh(),
                                              state.V)
        scores = _slot_log_scores(state, word_rep[s:t], offsets[s:t], ctot, slots)
        if row_of is not None:
            scores = scores.take(row_of)
        z_new = _draw(draws, relative_weights(scores))
        filled = not (state.m[z_new] or state.n[z_new])
        state.add_doc(d, words, counts, t - s, z_new)
        if filled:
            slots, row_of = scored_slots(state)
        if pruned or z_new != z_old:
            moved += 1
    return moved


def _gold_ids(corpus: Corpus) -> np.ndarray | None:
    """Gold labels as dense ids by first appearance, built once per run;
    None unless every document has one."""
    labels = corpus.gold_labels
    if not labels or any(lab is None for lab in labels):
        return None
    return _densify(labels)


def _record(trace: SweepTrace, gold: np.ndarray | None, state: ModelState,
            iteration: int, active: int, moved: int) -> None:
    cells = None
    if gold is not None:
        k_gold = int(gold.max()) + 1
        cell, count = np.unique(_first_seen_ids(state) * k_gold + gold,
                                return_counts=True)
        cells = np.stack((cell // k_gold, cell % k_gold, count), axis=1)
    trace.records.append(SweepRecord(iteration=iteration, active_clusters=active,
                                     moved_docs=moved, cells=cells))


def _first_seen_ids(state: ModelState) -> np.ndarray:
    """Assignments relabeled densely in order of first appearance, as
    LabeledPartitionPair.from_labels numbers them (so the confusion matrix,
    and NMI to the last bit, come out as from_labels gives them)."""
    z = state.assignments
    first = np.full(state.k_active, len(z))
    np.minimum.at(first, z, np.arange(len(z)))
    used = np.flatnonzero(first < len(z))
    rank = np.empty(state.k_active, dtype=np.int64)
    rank[used[np.argsort(first[used])]] = np.arange(len(used))
    return rank[z]


def _dense_labels(state: ModelState) -> np.ndarray:
    """Assignments relabeled densely over non-empty clusters, preserving
    cluster-index order."""
    used = np.flatnonzero(state.m[: state.k_active])
    remap = np.full(state.k_active, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return remap[state.assignments]


def run_gsdmm(corpus: Corpus, cfg: RunConfig) -> tuple[np.ndarray, ModelState, SweepTrace]:
    """Classic run: random initialization, uniform-beta sweeps, no pruning.

    Emptied clusters stay selectable; with alpha == 0 their probability is
    exactly zero. Returns assignments relabeled over non-empty
    clusters, the final state, and the per-sweep trace.
    """
    if cfg.algorithm != GSDMM:
        raise ConfigError(f"run_gsdmm called with algorithm {cfg.algorithm!r}")
    return _run(corpus, cfg)


def run_gsdmm_plus(corpus: Corpus, cfg: RunConfig) -> tuple[np.ndarray, ModelState, SweepTrace]:
    """Enhanced run: adaptive initialization, entropy-weighted sweeps with
    pruning, then merging down to k_real when one is configured.

    If sampling already ended at or below k_real clusters the merge is
    skipped (and reported in trace.notes when it ended below).
    """
    if cfg.algorithm != GSDMM_PLUS:
        raise ConfigError(f"run_gsdmm_plus called with algorithm {cfg.algorithm!r}")
    return _run(corpus, cfg)


def _run(corpus: Corpus, cfg: RunConfig) -> tuple[np.ndarray, ModelState, SweepTrace]:
    """The one driver. Pruning keeps every active gsdmm+ cluster non-empty
    and the slots contiguous, so there the dense labels are the assignments."""
    plus = cfg.algorithm == GSDMM_PLUS
    init_rng, sweep_rng = _streams(cfg.seed)
    state = (adaptive_init if plus else random_init)(corpus, cfg, init_rng)
    if plus:
        weights = word_entropy(state, cfg.entropy_epsilon, cfg.entropy_normalized)
    else:
        weights = UniformBeta(cfg.beta)
    gold = _gold_ids(corpus)
    trace = SweepTrace()
    for it in range(1, cfg.iterations + 1):
        moved = gibbs_sweep(state, corpus, weights, cfg, sweep_rng)
        if cfg.validate_every_sweep:
            state.validate(require_nonempty=plus)
        _record(trace, gold, state, it, state.nonempty_count(), moved)
    if plus and cfg.k_real is not None:
        if cfg.k_real > state.k_active:
            msg = (f"k_real={cfg.k_real} exceeds {state.k_active} active "
                   f"clusters; merge skipped")
            log.warning(msg)
            trace.notes.append(msg)
        elif cfg.k_real < state.k_active:
            trace.merge_log = merge_to_k(state, cfg.k_real)
    return _dense_labels(state), state, trace
