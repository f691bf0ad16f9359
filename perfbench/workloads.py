"""The four benchmark workloads and how their inputs are generated.

Every input is drawn from the seed given on the command line, through the
package's own generator (``gsdmm.synth.GenSpec``), and written to disk
before anything is timed. The same seed also feeds ``RunConfig.seed``, so
one seed fixes the whole run and the assignments it produces.

Sizes are chosen so that one measured repetition (a fresh child process:
import, read, views, sampling) takes about 2-4 s on a 2-core machine, which
lets a 28 s run summarise 5-10 repetitions. The mechanisms each
workload exists for are kept at this size; README.md gives the reasons.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

SAMPLER = "sampler"
CLI = "cli"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    gen: dict
    # RunConfig fields for sampler workloads; cluster flags for cli-pipeline
    run: dict
    nmi_floor: float
    smoke: dict = field(default_factory=dict)

    def sized(self, smoke: bool) -> "Workload":
        """The workload at full size, or shrunk to seconds for smoke runs."""
        if not smoke:
            return self
        return replace(self, gen={**self.gen, **self.smoke.get("gen", {})},
                       run={**self.run, **self.smoke.get("run", {})},
                       nmi_floor=self.smoke.get("nmi_floor", self.nmi_floor))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gsdmm-k500",
        kind=SAMPLER,
        gen=dict(k=20, v=20000, d=4000, doc_len=10, length_dist="fixed",
                 beta_gen=0.01),
        run=dict(algorithm="gsdmm", k_max=500, alpha=0.1, beta=0.1,
                 iterations=3),
        nmi_floor=0.85,
        smoke=dict(gen=dict(k=5, v=1000, d=300), run=dict(iterations=2),
                   nmi_floor=0.5),
    ),
    Workload(
        name="gsdmm-alpha0",
        kind=SAMPLER,
        gen=dict(k=20, v=5000, d=2500, doc_len=12, length_dist="poisson",
                 beta_gen=0.05),
        run=dict(algorithm="gsdmm", k_max=50, alpha=0.0, beta=0.1,
                 iterations=3),
        nmi_floor=0.85,
        smoke=dict(gen=dict(k=5, v=500, d=300), run=dict(k_max=20, iterations=2),
                   nmi_floor=0.5),
    ),
    Workload(
        name="plus-k300",
        kind=SAMPLER,
        gen=dict(k=50, v=20000, d=5000, doc_len=10, length_dist="poisson",
                 beta_gen=0.01),
        run=dict(algorithm="gsdmm+", k_max=300, k_real=50, beta=0.01,
                 iterations=2, entropy_refreshes_per_sweep=15),
        nmi_floor=0.85,
        smoke=dict(gen=dict(k=6, v=1000, d=300),
                   run=dict(k_max=60, k_real=4, iterations=2), nmi_floor=0.5),
    ),
    Workload(
        name="cli-pipeline",
        kind=CLI,
        gen=dict(k=10, v=5000, d=8000, doc_len=12, length_dist="poisson",
                 beta_gen=0.05),
        run=dict(algorithm="gsdmm", kmax=20, iters=2, topwords_n=10),
        nmi_floor=0.85,
        smoke=dict(gen=dict(k=5, v=500, d=400), run=dict(kmax=10),
                   nmi_floor=0.5),
    ),
)}

# noise the raw cli-pipeline text carries, so that tokenize does real work
_PUNCT = ",.;:!?()\"'"
_P_STOPWORD = 0.3
_P_CAPITAL = 0.2
_P_UPPER = 0.05
_P_PUNCT = 0.15
_P_NUMBER = 0.05


def generate(wl: Workload, seed: int, work: Path) -> None:
    """Write the workload's inputs for this seed under ``work``.

    Sampler workloads get a corpus archive (``archive/``); cli-pipeline gets
    a raw labelled JSONL file (``raw.jsonl``). Both get ``gold.tsv``, the
    generator's own doc id and label per line, which the checks use instead
    of reading labels back through the package.
    """
    from gsdmm.synth import GenSpec, generate_corpus

    corpus, labels, _, _ = generate_corpus(GenSpec(seed=seed, **wl.gen))
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "gold.tsv", "w", encoding="utf-8") as fh:
        for doc, label in zip(corpus.documents, labels):
            fh.write(f"{doc.doc_id}\t{label}\n")
    if wl.kind == SAMPLER:
        from gsdmm.cli import write_archive

        write_archive(corpus, work / "archive")
    else:
        _write_noisy_jsonl(corpus, seed, work / "raw.jsonl")


def _write_noisy_jsonl(corpus, seed: int, path: Path) -> None:
    """Labelled JSONL whose text needs the whole tokenizer: stopwords,
    capitals, punctuation and digits are mixed in, all drawn from the seed.
    The synthetic words survive tokenization unchanged."""
    from gsdmm.corpus import default_stopwords

    rng = random.Random(seed)
    stopwords = sorted(default_stopwords())
    vocab = corpus.vocabulary.id_to_word
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            tokens = [vocab[w] for w, c in doc.counts.items() for _ in range(c)]
            rng.shuffle(tokens)
            out = []
            for tok in tokens:
                if rng.random() < _P_STOPWORD:
                    out.append(rng.choice(stopwords).capitalize())
                r = rng.random()
                if r < _P_UPPER:
                    tok = tok.upper()
                elif r < _P_UPPER + _P_CAPITAL:
                    tok = tok.capitalize()
                if rng.random() < _P_PUNCT:
                    tok += rng.choice(_PUNCT)
                out.append(tok)
                if rng.random() < _P_NUMBER:
                    out.append(str(rng.randrange(1, 3000)))
            rec = {"id": doc.doc_id, "text": " ".join(out),
                   "label": doc.gold_label}
            fh.write(json.dumps(rec) + "\n")


def read_gold(work: Path) -> list[tuple[str, str]]:
    with open(work / "gold.tsv", encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh]
