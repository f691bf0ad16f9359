"""One benchmark step in a fresh process: generate inputs, or measure once.

``generate`` writes a workload's inputs for a seed. ``measure`` imports the
package, runs the workload once through its public entry points, checks
every output, and prints one JSON line. With ``--trace 1`` it installs the
tracer's wrappers first and adds the per-layer metrics to that line.

Only the standard library is imported before the clock starts, so
``setup_s`` covers ``import gsdmm`` and everything after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import workloads as wls


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["generate", "measure"])
    p.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    p.add_argument("--work", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--run-id", default="run")
    p.add_argument("--spans", help="file for the traced run's spans")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    wl = wls.WORKLOADS[args.workload].sized(args.smoke)
    work = Path(args.work)
    if args.mode == "generate":
        wls.generate(wl, args.seed, work)
        return 0
    measure = measure_sampler if wl.kind == wls.SAMPLER else measure_cli
    result = measure(wl, args, work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, sort_keys=True))
    return 0


def _tracer(args):
    if not args.trace:
        return None
    from tracer import Tracer

    tracer = Tracer(args.run_id)
    tracer.install()
    return tracer


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _finish_trace(tracer, root: str, args, result: dict) -> None:
    """Restore the package, then add the per-layer metrics to the result."""
    tracer.uninstall()
    result["layers"] = tracer.metrics(root)
    result["missing"] = tracer.missing
    if args.spans:
        tracer.write(args.spans)


def measure_sampler(wl, args, work: Path) -> dict:
    t0 = time.perf_counter()
    import gsdmm.cli
    import gsdmm.sampler

    tracer = _tracer(args)
    with _span(tracer, "bench.setup"):
        corpus = gsdmm.cli.read_archive(work / "archive")
        corpus.token_views
    t1 = time.perf_counter()
    cfg = gsdmm.sampler.RunConfig(seed=args.seed, **wl.run)
    run = gsdmm.sampler.run_gsdmm if cfg.algorithm == gsdmm.sampler.GSDMM \
        else gsdmm.sampler.run_gsdmm_plus
    t2 = time.perf_counter()
    with _span(tracer, "bench.cluster"):
        assignments, state, _ = run(corpus, cfg)
    t3 = time.perf_counter()
    result = {"setup_s": t1 - t0, "cluster_s": t3 - t2, "pipeline_s": t3 - t0}
    if tracer:
        _finish_trace(tracer, "bench.cluster", args, result)

    import numpy as np

    failures = []
    try:
        state.validate(require_nonempty=cfg.algorithm == gsdmm.sampler.GSDMM_PLUS)
    except AssertionError as exc:
        failures.append(f"state.validate: {exc}")
    gold = wls.read_gold(work)
    ids = [doc.doc_id for doc in corpus.documents]
    if ids != [doc_id for doc_id, _ in gold]:
        failures.append("archive doc ids differ from the generated corpus")
    z = np.asarray(assignments)
    limit = cfg.k_real if cfg.k_real is not None else cfg.k_max
    if len(z) != len(gold):
        failures.append(f"{len(z)} assignments for {len(gold)} documents")
    elif z.min() < 0 or z.max() >= limit:
        failures.append(f"assignment outside [0, {limit})")
    if cfg.k_real is not None and len(np.unique(z)) != cfg.k_real:
        failures.append(f"{len(np.unique(z))} final clusters, k_real={cfg.k_real}")
    quality = _quality(z.tolist(), [label for _, label in gold])
    if not quality["nmi"] >= wl.nmi_floor:
        failures.append(f"nmi {quality['nmi']:.4f} below floor {wl.nmi_floor}")
    digest = hashlib.sha256(np.ascontiguousarray(z, dtype="<i8").tobytes()).hexdigest()
    return {**result, **quality, "digest": digest, "failures": failures}


def measure_cli(wl, args, work: Path) -> dict:
    t0 = time.perf_counter()
    import gsdmm.cli

    tracer = _tracer(args)
    t1 = time.perf_counter()
    archive, run_dir = work / "archive", work / "run"
    n = wl.run["topwords_n"]
    commands = [
        ["preprocess", str(work / "raw.jsonl"), str(archive)],
        ["cluster", str(archive), str(run_dir), "--algorithm", wl.run["algorithm"],
         "--kmax", str(wl.run["kmax"]), "--iters", str(wl.run["iters"]),
         "--seed", str(args.seed)],
        ["eval", str(run_dir / "assignments.csv"), str(archive)],
        ["topwords", str(archive), str(run_dir), "-n", str(n)],
    ]
    codes, outputs, times = [], [], []
    with _span(tracer, "bench.pipeline"):
        for argv in commands:
            buf = io.StringIO()
            ts = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                codes.append(gsdmm.cli.main(argv))
            times.append(time.perf_counter() - ts)
            outputs.append(buf.getvalue())
    t2 = time.perf_counter()
    result = {"setup_s": t1 - t0, "cluster_s": times[1], "pipeline_s": t2 - t1}
    if tracer:
        _finish_trace(tracer, "bench.pipeline", args, result)

    failures = [f"{argv[0]} exited {code}" for argv, code in zip(commands, codes) if code]
    quality = {"nmi": 0.0, "acc": 0.0}
    digest = ""
    if not failures:
        quality, digest = _check_cli_outputs(work, run_dir, outputs, n, failures)
        if not quality["nmi"] >= wl.nmi_floor:
            failures.append(f"nmi {quality['nmi']:.4f} below floor {wl.nmi_floor}")
    return {**result, **quality, "digest": digest, "failures": failures}


def _check_cli_outputs(work, run_dir, outputs, n, failures):
    gold = dict(wls.read_gold(work))
    csv_text = (run_dir / "assignments.csv").read_text(encoding="utf-8")
    rows = [line.split(",") for line in csv_text.splitlines()[1:] if line]
    ids = [doc_id for doc_id, _ in rows]
    stats = json.loads((work / "archive" / "stats.json").read_text(encoding="utf-8"))
    dropped = set(stats.get("dropped_doc_ids", []))
    if len(set(ids)) != len(ids) or set(ids) | dropped != set(gold) or set(ids) & dropped:
        failures.append("assignments.csv does not cover the kept documents once each")
    pred = [int(z) for _, z in rows]
    quality = _quality(pred, [gold.get(doc_id, "?") for doc_id in ids])
    report = json.loads(outputs[2])
    if not abs(report["nmi"] - quality["nmi"]) <= 1e-9:
        failures.append(f"eval nmi {report['nmi']} != recomputed {quality['nmi']}")
    lines = outputs[3].splitlines()
    per_cluster: dict[str, int] = {}
    for line in lines[1:]:
        cluster = line.split("\t", 1)[0]
        per_cluster[cluster] = per_cluster.get(cluster, 0) + 1
    want = {str(z): n for z in set(pred)}
    if lines[:1] != ["cluster\trank\tword\tphi"] or per_cluster != want:
        failures.append(f"topwords did not print {n} rows for each cluster")
    digest = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
    return quality, digest


def _quality(pred: list, gold: list) -> dict:
    """NMI (geometric-mean normalization, natural log) and optimal-matching
    accuracy, computed here from the contingency table so that the checks do
    not rest on the package's own metrics."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    _, p = np.unique(np.asarray(pred), return_inverse=True)
    _, g = np.unique(np.asarray(gold), return_inverse=True)
    table = np.zeros((p.max() + 1, g.max() + 1))
    np.add.at(table, (p, g), 1.0)
    joint = table / len(p)
    pi, pj = joint.sum(axis=1), joint.sum(axis=0)
    h_p = -(pi * np.log(pi)).sum()
    h_g = -(pj * np.log(pj)).sum()
    nz = joint > 0
    mi = (joint[nz] * np.log(joint[nz] / np.outer(pi, pj)[nz])).sum()
    nmi = 1.0 if h_p == 0 and h_g == 0 else (
        0.0 if h_p == 0 or h_g == 0 else float(mi / math.sqrt(h_p * h_g)))
    rows, cols = linear_sum_assignment(table, maximize=True)
    return {"nmi": nmi, "acc": float(table[rows, cols].sum() / len(p))}


if __name__ == "__main__":
    sys.exit(main())
