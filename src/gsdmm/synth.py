"""Synthetic corpora with known ground truth, plus brute-force oracles.

The generator draws mixture weights and per-cluster word distributions from
symmetric Dirichlets, then emits documents whose words are i.i.d. draws
from their cluster's distribution. The oracles re-derive the sampler's
arithmetic by an independent route (log-gamma ratios and exhaustive
enumeration) and exist purely for verification; they are the only code in
the package that imports scipy, and only when they run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusStats, Document, TokenCSR, Vocabulary
from .errors import InstanceTooLarge, NonPositiveArgument, TooManyClusters
from .evaluation import LabeledPartitionPair, confusion_matrix
from .model import ModelState, UniformBeta, WeightingScheme

__all__ = [
    "GenSpec",
    "generate_corpus",
    "write_jsonl",
    "oracle_delta_ratio",
    "JointEnumeration",
    "oracle_enumerate_joint",
    "oracle_assignment_bruteforce",
]


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the generative process.

    doc_len is the fixed document length, or the mean when length_dist is
    "poisson" (zero-length draws are resampled). alpha_gen defaults high
    enough to keep cluster sizes near-balanced, which is what recovery
    fixtures want.
    """

    k: int
    v: int
    d: int
    doc_len: float = 8
    length_dist: str = "fixed"
    alpha_gen: float = 10.0
    beta_gen: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.v < 2 or self.d < 0:
            raise ValueError(f"need k >= 1, v >= 2, d >= 0; got {self}")
        if self.doc_len < 1:
            raise ValueError(f"doc_len must be >= 1, got {self.doc_len}")
        if self.length_dist not in ("fixed", "poisson"):
            raise ValueError(f"unknown length_dist {self.length_dist!r}")
        if self.alpha_gen <= 0 or self.beta_gen <= 0:
            raise ValueError("alpha_gen and beta_gen must be > 0")


def _word_string(wid: int, width: int) -> str:
    letters = []
    for _ in range(width):
        wid, rem = divmod(wid, 26)
        letters.append(chr(ord("a") + rem))
    return "w" + "".join(reversed(letters))


def generate_corpus(
    spec: GenSpec,
) -> tuple[Corpus, list[str], np.ndarray, np.ndarray]:
    """Draw (corpus, gold labels, true mixture weights, true word dists).

    Word strings are synthetic but alphabetic, so the corpus round-trips
    through the tokenizer unchanged. Fully reproducible from spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    theta = rng.dirichlet(np.full(spec.k, spec.alpha_gen))
    phi = rng.dirichlet(np.full(spec.v, spec.beta_gen), size=spec.k)

    width = max(2, math.ceil(math.log(max(spec.v, 2)) / math.log(26)))
    id_to_word = tuple(_word_string(w, width) for w in range(spec.v))

    doc_words, doc_counts, lengths, labels = [], [], [], []
    for _ in range(spec.d):
        z = int(rng.choice(spec.k, p=theta))
        if spec.length_dist == "fixed":
            length = int(spec.doc_len)
        else:
            length = 0
            while length == 0:
                length = int(rng.poisson(spec.doc_len))
        uniq, cnt = np.unique(rng.choice(spec.v, size=length, p=phi[z]),
                              return_counts=True)
        doc_words.append(uniq)
        doc_counts.append(cnt)
        lengths.append(length)
        labels.append(f"c{z}")

    csr = TokenCSR.from_rows(doc_words, doc_counts, lengths)
    stats = CorpusStats(
        D=spec.d,
        V=spec.v,
        mean_len=float(np.mean(lengths)) if lengths else 0.0,
        max_len=int(max(lengths)) if lengths else 0,
    )
    vocab = Vocabulary(
        word_to_id={w: i for i, w in enumerate(id_to_word)},
        id_to_word=id_to_word,
        doc_freq=tuple(np.bincount(csr.words, minlength=spec.v).tolist()),
    )
    corpus = Corpus.from_arrays(csr, [f"d{i}" for i in range(spec.d)], labels,
                                vocabulary=vocab, stats=stats)
    return corpus, labels, theta, phi


def write_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as labeled JSONL, expanding counts into tokens in
    rising word id order."""
    vocab = corpus.vocabulary.id_to_word
    csr = corpus.token_csr
    wp = csr.word_ptr.tolist()
    words, counts = csr.words.tolist(), csr.counts.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, label, a, b in zip(corpus.doc_ids, corpus.gold_labels, wp, wp[1:]):
            tokens = []
            for w, c in sorted(zip(words[a:b], counts[a:b])):
                tokens.extend([vocab[w]] * c)
            rec = {"id": doc_id, "text": " ".join(tokens)}
            if label is not None:
                rec["label"] = label
            fh.write(json.dumps(rec) + "\n")


def _pseudo_vector(weights: WeightingScheme, v: int) -> np.ndarray:
    if isinstance(weights, UniformBeta):
        vec = np.full(v, weights.beta)
    else:
        vec = np.asarray(weights.h, dtype=np.float64)
        if len(vec) != v:
            raise ValueError(f"pseudo-count table covers {len(vec)} words, "
                             f"state has {v}")
    if vec.min() <= 0:
        raise NonPositiveArgument("pseudo-count vector must be positive")
    return vec


def _log_delta(x: np.ndarray) -> float:
    """log of the Dirichlet normalizer: sum of log-gammas minus log-gamma
    of the sum."""
    from scipy.special import gammaln

    return float(gammaln(x).sum() - gammaln(x.sum()))


def oracle_delta_ratio(
    doc: Document,
    z: int,
    state: ModelState,
    weights: WeightingScheme,
) -> float:
    """Unnormalized conditional via log-gamma normalizer ratios.

    Independent of the product-form kernel: evaluates
    exp(logDelta(counts_with_doc + c) - logDelta(counts_without + c))
    times (m_excluded + alpha). The document must already be excluded
    from cluster z.
    """
    state._check_active(z)
    c = _pseudo_vector(weights, state.V)
    without = state.wz[:, z].astype(np.float64) + c
    with_doc = without.copy()
    for w, cnt in doc.counts.items():
        with_doc[w] += cnt
    return math.exp(_log_delta(with_doc) - _log_delta(without)) * \
        (int(state.m[z]) + state.alpha)


class JointEnumeration:
    """Exact collapsed joint over every possible assignment vector.

    Test-only oracle: tabulates log p(docs, assignments) for all k**D
    assignment vectors, then answers any Gibbs conditional as a ratio of
    the tabulated joints. Requires alpha > 0 (the joint's size prior is
    undefined at zero).
    """

    MAX_ASSIGNMENTS = 10 ** 6
    CHUNK = 1 << 14

    def __init__(self, corpus: Corpus, k: int, alpha: float,
                 weights: WeightingScheme):
        from scipy.special import gammaln

        d = len(corpus)
        if k ** d > self.MAX_ASSIGNMENTS:
            raise InstanceTooLarge(f"{k}**{d} assignments exceed the cap")
        if alpha <= 0:
            raise NonPositiveArgument("enumeration requires alpha > 0")
        self.k = k
        self.d = d
        v = corpus.vocabulary.size
        c = _pseudo_vector(weights, v)
        x = np.zeros((d, v), dtype=np.float64)
        csr = corpus.token_csr
        x[csr.entry_doc, csr.words] = csr.counts

        total = k ** d
        # digit place values: document 0 is the most significant digit
        self._places = k ** np.arange(d - 1, -1, -1, dtype=np.int64)
        log_joint = np.empty(total, dtype=np.float64)
        const = -_log_delta(np.full(k, alpha)) - k * _log_delta(c)
        for start in range(0, total, self.CHUNK):
            idx = np.arange(start, min(start + self.CHUNK, total), dtype=np.int64)
            digits = (idx[:, None] // self._places[None, :]) % k  # (B, d)
            onehot = (digits[:, :, None] == np.arange(k)[None, None, :]).astype(np.float64)
            m = onehot.sum(axis=1)  # (B, k)
            nzw = np.einsum("bdz,dw->bzw", onehot, x)  # (B, k, v)
            full = nzw + c[None, None, :]
            log_delta_z = gammaln(full).sum(axis=2) - gammaln(full.sum(axis=2))
            prior = gammaln(m + alpha).sum(axis=1) - gammaln(m.sum(axis=1) + k * alpha)
            log_joint[idx] = prior + log_delta_z.sum(axis=1) + const
        self.log_joint = log_joint

    def conditional(self, doc_index: int, assignment: np.ndarray) -> np.ndarray:
        """Exact p(z_d = . | other assignments, docs) by joint ratios."""
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != self.d:
            raise ValueError(f"assignment length {len(assignment)} != D {self.d}")
        base = int(np.dot(assignment, self._places)) \
            - int(assignment[doc_index]) * int(self._places[doc_index])
        idx = base + np.arange(self.k, dtype=np.int64) * int(self._places[doc_index])
        logs = self.log_joint[idx]
        p = np.exp(logs - logs.max())
        return p / p.sum()


def oracle_enumerate_joint(
    corpus: Corpus,
    k: int,
    alpha: float,
    weights: WeightingScheme,
) -> JointEnumeration:
    return JointEnumeration(corpus, k, alpha, weights)


def oracle_assignment_bruteforce(pair: LabeledPartitionPair) -> float:
    """Exact optimal-matching accuracy by enumerating injective maps."""
    if max(pair.k_pred, pair.k_gold) > 6:
        raise TooManyClusters(
            f"brute force capped at 6 clusters, got "
            f"{pair.k_pred} x {pair.k_gold}"
        )
    mat = confusion_matrix(pair)
    size = max(mat.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: mat.shape[0], : mat.shape[1]] = mat
    best = 0
    for perm in permutations(range(size)):
        matched = sum(int(padded[i, perm[i]]) for i in range(size))
        best = max(best, matched)
    return best / pair.D
