"""Command-line surface: preprocess, cluster, eval, topwords, synth.

Commands compose into a pipeline over plain-text artifacts: a corpus
archive directory (vocabulary.tsv, documents.txt, stats.json), an
assignments CSV, and JSON reports. Exit codes: 0 success, 2 malformed
input or invalid generator spec, 3 configuration violations, 4 unmatched
document ids, 5 missing model artifacts. Set DMM_LOG to control log
verbosity.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .archive import check_comma_free, read_archive, write_archive
from .corpus import (
    TokenRules,
    build_corpus,
    check_unique_doc_ids,
    default_stopwords,
    load_stopwords,
    read_dataset,
)
from .errors import ConfigError, GsdmmError, KMaxExceedsCorpus, MalformedRecord
from .evaluation import LabeledPartitionPair, evaluate
from .model import ModelState, top_words
from .sampler import GSDMM, GSDMM_PLUS, RunConfig, run_gsdmm, run_gsdmm_plus
from .synth import GenSpec, generate_corpus, write_jsonl

log = logging.getLogger("gsdmm")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_UNMATCHED_IDS = 4
EXIT_MISSING_ARTIFACTS = 5

# every key a config file may define and its value's type (object: any)
CONFIG_KEYS = {
    "algorithm": object, "alpha": float, "beta": float, "entropy_eps": float,
    "kmax": int, "kreal": int, "iters": int, "seed": int, "min_df": int,
    "min_len": int, "max_len": int, "entropy_refreshes": int, "trace": bool,
    "stem": bool, "entropy_norm": bool, "format": str, "stopwords": str,
}


def _parse_config_value(raw: str):
    """A config value as written: a quoted or bare string, a boolean, an
    int or a float. An integer too large for a float raises OverflowError
    with its number of digits."""
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        value = int(raw)
    except ValueError:
        if (raw[1:] if raw[:1] in "+-" else raw).isdecimal():
            # int() refuses more than 4300 digits, and float() reads inf
            raise OverflowError(len(raw)) from None
    else:
        try:
            float(value)
        except OverflowError:
            raise OverflowError(len(str(value))) from None
        return value
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _typed_config_value(key: str, value, where: str):
    """Check a parsed value against its key's type and return it as that
    type: boolean keys take exactly true or false, integer keys integral
    numbers only (as int), number keys finite numbers only (as float) and
    string keys anything but a bare number or boolean (quote a numeric
    path)."""
    kind = CONFIG_KEYS[key]
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise ConfigError(f"{where}: {key} must be a string (quote a number), "
                          f"got {value!r}")
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        if not (numeric and float(value).is_integer()):
            raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
        return int(value)
    if kind is float:
        if not numeric:
            raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
        if not math.isfinite(value):  # 1e400 reads as inf
            raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
        return float(value)
    return value


def load_config_file(path: str | Path) -> dict:
    """Flat key = value file; blank lines and # comments allowed. Values are
    checked against their key's type (see _typed_config_value); a number
    too large for a float is refused for every key."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = _parse_config_value(raw)
            except OverflowError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} is too large "
                                  f"({exc} digits)") from None
            values[key] = _typed_config_value(key, value, f"{path}:{lineno}")
    return values


def _settings(args: argparse.Namespace) -> dict:
    """The config file's values (with --config), each overridden by the
    flag of the same name when that is given."""
    config = load_config_file(args.config) if args.config else {}
    return {**config, **{k: v for k, v in vars(args).items() if v is not None}}


# the flags and config keys that set RunConfig and TokenRules fields; one
# given by neither leaves its field at the dataclass default
RUN_FIELDS = {
    "algorithm": "algorithm", "kmax": "k_max", "kreal": "k_real",
    "alpha": "alpha", "beta": "beta", "iters": "iterations", "seed": "seed",
    "entropy_refreshes": "entropy_refreshes_per_sweep",
    "entropy_eps": "entropy_epsilon", "entropy_norm": "entropy_normalized",
}
RULE_FIELDS = {"stem": "stemming", "min_len": "min_word_len",
               "max_len": "max_word_len", "min_df": "min_df"}
# the enhanced variant's default beta, the one default the command line sets
# itself; gsdmm takes RunConfig's
GSDMM_PLUS_BETA = 0.01


# ---------------------------------------------------------------------------
# commands

def cmd_preprocess(args: argparse.Namespace) -> int:
    given = _settings(args)
    stopword_path = given.get("stopwords")
    stopwords = load_stopwords(stopword_path) if stopword_path \
        else default_stopwords()
    try:
        rules = TokenRules(stopword_list=stopwords, **{
            name: given[key] for key, name in RULE_FIELDS.items() if key in given})
    except ValueError as exc:  # a rule value out of range
        raise ConfigError(str(exc)) from None
    records = read_dataset(args.input, given.get("format", "jsonl"))
    corpus = build_corpus(records, rules)
    write_archive(corpus, args.output)
    if corpus.dropped_doc_ids:
        log.info("dropped %d emptied documents", len(corpus.dropped_doc_ids))
    s = corpus.stats
    print(f"D={s.D} V={s.V} mean_len={s.mean_len:.2f} max_len={s.max_len}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace) -> int:
    given = _settings(args)
    fields = {name: given[key] for key, name in RUN_FIELDS.items() if key in given}
    if fields.get("algorithm") == GSDMM_PLUS:
        fields.setdefault("beta", GSDMM_PLUS_BETA)
    cfg = RunConfig(**fields)
    corpus = read_archive(args.archive)
    check_comma_free(corpus.doc_ids)  # an archive written by hand may hold one
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)

    run = run_gsdmm if cfg.algorithm == GSDMM else run_gsdmm_plus
    t0 = time.perf_counter()
    assignments, state, trace = run(corpus, cfg)
    k_final = state.nonempty_count()
    wall_ms = int(round((time.perf_counter() - t0) * 1000))

    with open(out / "assignments.csv", "w", encoding="utf-8") as fh:
        fh.write("doc_id,cluster\n")
        fh.writelines(f"{doc_id},{z}\n"
                      for doc_id, z in zip(corpus.doc_ids, assignments.tolist()))
    summary = {
        "algorithm": cfg.algorithm,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "k_max": cfg.k_max,
        "k_real": cfg.k_real,
        "k_final": k_final,
        "iterations": cfg.iterations,
        "seed": cfg.seed,
        "wall_time_ms": wall_ms,
        "notes": trace.notes,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if given.get("trace", False):
        (out / "trace.csv").write_text(trace.to_csv(), encoding="utf-8")
    if cfg.algorithm == GSDMM_PLUS:
        lines = ["step,cluster_a,cluster_b,similarity"]
        for step, (a, b, sim) in enumerate(trace.merge_log or [], start=1):
            lines.append(f"{step},{a},{b},{sim:.6f}")
        (out / "mergelog.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"k_final={k_final} wall_time_ms={wall_ms}")
    return EXIT_OK


def _read_assignments(path: str | Path) -> list[tuple[str, int]]:
    """(doc_id, cluster) rows; a cluster id other than ASCII digits (a
    negative one too) or past int64, or a repeated doc id, is a
    MalformedRecord, and a file without rows a GsdmmError."""
    rows: list[tuple[str, int]] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "doc_id,cluster":
            raise MalformedRecord("expected header 'doc_id,cluster'", 1)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split(",")
            if len(cols) != 2:
                raise MalformedRecord("expected doc_id,cluster", lineno)
            z = cols[1]
            if not (z.isascii() and z.isdigit()):
                if z[:1] == "-" and z[1:].isascii() and z[1:].isdigit():
                    raise MalformedRecord(f"negative cluster id {z}", lineno)
                raise MalformedRecord(
                    f"expected a cluster id in ASCII digits, got {z!r}", lineno)
            # at most 19 digits are converted, so a value of any length reads
            digits = z.lstrip("0") or "0"
            cluster = int(digits) if len(digits) <= 19 else 2 ** 63
            if cluster >= 2 ** 63:
                raise MalformedRecord(
                    f"cluster id of {len(digits)} digits is past int64", lineno)
            if cols[0] in seen:
                raise MalformedRecord(f"duplicate doc id {cols[0]!r}", lineno)
            seen.add(cols[0])
            rows.append((cols[0], cluster))
    if not rows:
        raise GsdmmError(f"{path} holds no assignments")
    return rows


def _gold_labels(source: str, fmt: str) -> dict[str, str]:
    """Labels by doc id, from either a corpus archive or a raw dataset."""
    path = Path(source)
    labels: dict[str, str] = {}
    if path.is_dir():
        corpus = read_archive(path)
        for doc_id, label in zip(corpus.doc_ids, corpus.gold_labels):
            if label is not None:
                labels[doc_id] = label
    else:
        records = read_dataset(path, fmt)
        check_unique_doc_ids([doc_id for doc_id, _, _ in records])
        for doc_id, _, label in records:
            if label is not None:
                labels[doc_id] = label
    return labels


def cmd_eval(args: argparse.Namespace) -> int:
    rows = _read_assignments(args.assignments)
    gold_map = _gold_labels(args.gold, args.format or "jsonl")
    missing = [doc_id for doc_id, _ in rows if doc_id not in gold_map]
    if missing:
        print(f"error: no gold label for doc id {missing[0]!r} "
              f"({len(missing)} unmatched)", file=sys.stderr)
        return EXIT_UNMATCHED_IDS
    pred = [z for _, z in rows]
    gold = [gold_map[doc_id] for doc_id, _ in rows]
    report = evaluate(LabeledPartitionPair.from_labels(pred, gold))
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    print(payload)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_topwords(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    run_dir = Path(args.run)
    assignments_path = run_dir / "assignments.csv"
    summary_path = run_dir / "summary.json"
    if not assignments_path.exists() or not summary_path.exists():
        print(f"error: missing model artifacts under {run_dir}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACTS
    corpus = read_archive(args.archive)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    rows = _read_assignments(assignments_path)
    by_id = {doc_id: i for i, doc_id in enumerate(corpus.doc_ids)}
    missing = [doc_id for doc_id, _ in rows if doc_id not in by_id]
    if missing:
        print(f"error: assignment id {missing[0]!r} not in archive",
              file=sys.stderr)
        return EXIT_UNMATCHED_IDS

    # one dense slot per cluster id in use, so the state's size does not
    # depend on how large the ids are
    ids = sorted({z for _, z in rows})
    slot_of = {z: slot for slot, z in enumerate(ids)}
    state = ModelState.for_corpus(corpus, len(ids), alpha=summary.get("alpha", 0.1))
    state.add_docs(corpus.token_csr, [by_id[doc_id] for doc_id, _ in rows],
                   [slot_of[z] for _, z in rows])
    state.D = len(rows)

    beta = float(summary.get("beta", 0.1))
    lines = ["cluster\trank\tword\tphi"]
    for slot, z in enumerate(ids):
        for rank, (word, phi) in enumerate(
                top_words(state, corpus.vocabulary, slot, args.n, beta), start=1):
            lines.append(f"{z}\t{rank}\t{word}\t{phi:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = GenSpec(
        k=args.k, v=args.v, d=args.d,
        doc_len=args.doc_len, length_dist=args.len_dist,
        alpha_gen=args.alpha_gen, beta_gen=args.beta_gen,
        seed=args.seed,
    )
    corpus, _, theta, _ = generate_corpus(spec)
    write_jsonl(corpus, args.output)
    print(f"wrote {corpus.stats.D} documents, {spec.k} clusters")
    print("theta: " + " ".join(f"{t:.4f}" for t in theta))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsdmm",
        description="Short text clustering with Dirichlet multinomial mixtures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="tokenize a dataset into a corpus archive")
    p.add_argument("input")
    p.add_argument("output", help="archive directory to create")
    p.add_argument("--format", choices=["jsonl", "tsv"])
    p.add_argument("--stopwords", help="stopword file (default: built-in list)")
    p.add_argument("--stem", action="store_const", const=True)
    p.add_argument("--min-df", type=int, dest="min_df")
    p.add_argument("--min-len", type=int, dest="min_len")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--config")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("cluster", help="run a sampler over a corpus archive")
    p.add_argument("archive")
    p.add_argument("output", help="run directory to create")
    p.add_argument("--algorithm", choices=[GSDMM, GSDMM_PLUS])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--kmax", type=int)
    p.add_argument("--kreal", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--entropy-refreshes", type=int, dest="entropy_refreshes")
    p.add_argument("--entropy-eps", type=float, dest="entropy_eps")
    p.add_argument("--no-entropy-norm", action="store_const", const=False,
                   dest="entropy_norm")
    p.add_argument("--trace", action="store_const", const=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("eval", help="score assignments against gold labels")
    p.add_argument("assignments")
    p.add_argument("gold", help="corpus archive directory or labeled dataset")
    p.add_argument("--format", choices=["jsonl", "tsv"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("topwords", help="representative words per cluster")
    p.add_argument("archive")
    p.add_argument("run", help="run directory from the cluster command")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_topwords)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("output")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--doc-len", type=float, default=8, dest="doc_len")
    p.add_argument("--len-dist", choices=["fixed", "poisson"], default="fixed",
                   dest="len_dist")
    p.add_argument("--alpha-gen", type=float, default=10.0, dest="alpha_gen")
    p.add_argument("--beta-gen", type=float, default=0.05, dest="beta_gen")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


# whether main has frozen the objects alive after the imports
_gc_frozen = False


def main(argv: list[str] | None = None) -> int:
    global _gc_frozen
    if not _gc_frozen:
        # the import-time objects live as long as the process; frozen, a
        # full collection during a command no longer traverses them
        gc.freeze()
        _gc_frozen = True
    level = os.environ.get("DMM_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KMaxExceedsCorpus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FileNotFoundError as exc:
        print(f"error: missing file {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACTS if args.command == "topwords" \
            else EXIT_BAD_INPUT
    except (MalformedRecord, ValueError, GsdmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
