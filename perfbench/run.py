"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload gsdmm-k500 --seed 1 --seconds 28 --trace 0

Generates the workload's inputs from the seed (untimed), then starts fresh
child processes one at a time, each running the workload once, until the
next one would end past ``--seconds`` and at least three have run. A fixed
reference workload (``reference.py``) is timed before and after every
child. ``cluster_s`` and ``pipeline_s`` are the children's mean wall time
times ``(REF_S / mean reference time) ** ELASTICITY``, and ``setup_s`` is
the median of the same scaling per child, so that a phase in which the
shared host runs slowly does not read as a slower program; the other
end-to-end metrics are medians over the children.

With ``--trace 1`` the untraced children run for half the time and give the
baseline, then one more child runs with the tracer's wrappers installed;
its spans give the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
record each child's result, the environment and a summary of the times.
``--smoke`` runs every code path at tiny sizes in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import workloads as wls  # noqa: E402
from reference import REF_S, Reference  # noqa: E402

MIN_REPS = 3
# how far the workloads' wall times follow the reference. A log-log fit of
# child wall time on reference time over about 600 children of the seed
# code gives slopes of 0.55-0.64, pulled down by the reference's own noise;
# the full ratio (1.0) over-corrects work whose counts stay in the core's
# cache. Over three sets of ten runs per workload, 0.75 gave the narrowest
# widest spread and the smallest widest move of a median between sets.
ELASTICITY = 0.75
DEADLINE_S = 170.0  # a run must end within 180 s



def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def median(reps: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in reps)


def scaled(reps: list[dict], name: str) -> float:
    """The children's mean wall time, scaled by how much slower than
    ``REF_S`` their mean reference time ran, to the power ``ELASTICITY``.
    Slow phases of a shared host stretch both means; a change to the
    program moves only the first."""
    mean_ref = statistics.fmean(r["ref_s"] for r in reps)
    return statistics.fmean(r[name] for r in reps) * (REF_S / mean_ref) ** ELASTICITY


def scaled_median(reps: list[dict], name: str) -> float:
    """Median over the children of each one's wall time scaled by its own
    reference time. Set-up is a short import and file read, so one slow
    child would move a mean; the median of several set-ups does not."""
    return statistics.median(r[name] * (REF_S / r["ref_s"]) ** ELASTICITY for r in reps)


# the wall times and how each is summarised; every other metric is a median
TIMES = {"setup_s": scaled_median, "cluster_s": scaled, "pipeline_s": scaled}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("DMM_LOG", None)
    return env


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_revision": revision,
        "gcc_on_path": shutil.which("gcc") is not None,
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.env = child_env()
        tag = f"{args.workload}-{args.seed}-{os.getpid()}"
        self.work = WORK / tag
        self.reps: list[dict] = []
        self.traced: dict | None = None
        self.errors: list[str] = []
        self.reference = Reference()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, mode: str, trace: int = 0, spans: Path | None = None):
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--workload", self.args.workload, "--work", str(self.work),
               "--seed", str(self.args.seed), "--trace", str(trace),
               "--run-id", f"{self.args.workload}-{self.args.seed}-{len(self.reps)}"]
        if spans:
            cmd += ["--spans", str(spans)]
        if self.args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} child timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
            return None
        if mode == "generate":
            return {}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.errors.append(f"{mode} child printed no result")
            return None

    def measure(self, trace: bool) -> None:
        """Run untraced children until the next one would end past the
        budget, and at least MIN_REPS of them."""
        budget = self.args.seconds / 2 if trace else self.args.seconds
        loop_start = time.perf_counter()
        took: list[float] = []
        before = self.reference.time()
        while len(self.reps) < MIN_REPS or \
                time.perf_counter() - loop_start + statistics.median(took) <= budget:
            if self.remaining() < 20 and self.reps:
                break
            t0 = time.perf_counter()
            rep = self.child("measure")
            after = self.reference.time()
            took.append(time.perf_counter() - t0)
            if rep is not None:
                rep["ref_s"] = (before + after) / 2
            before = after
            self.reps.append(rep)
            print("rep " + json.dumps(rep, sort_keys=True), flush=True)
            if rep is None:
                break
        if trace and all(self.reps):
            WORK.mkdir(exist_ok=True)
            spans = WORK / f"{self.args.workload}.spans.csv"
            self.traced = self.child("measure", trace=1, spans=spans)
            print("traced " + json.dumps(self.traced, sort_keys=True), flush=True)

    def failures(self) -> list[str]:
        found = list(self.errors)
        runs = [r for r in self.reps + [self.traced] if r]
        for r in runs:
            found += r["failures"]
        if len({r["digest"] for r in runs}) > 1:
            found.append("same-seed runs gave different assignment digests")
        if self.traced is not None and self.traced.get("missing"):
            print("trace targets not found: " + ", ".join(self.traced["missing"]),
                  file=sys.stderr)
        return found

    def metrics(self) -> dict:
        ok = [r for r in self.reps if r]
        if not self.args.trace:
            return {name: {"value": TIMES.get(name, median)(ok, name), "unit": unit}
                    for name, unit in declared("end_to_end").items()}
        layers = dict(self.traced["layers"])
        key = "pipeline_s" if wls.WORKLOADS[self.args.workload].kind == wls.CLI \
            else "cluster_s"
        untraced = median(ok, key)
        layers["trace.overhead_frac"] = layers["trace.root_s"] / untraced - 1.0
        root = layers["trace.root_s"]
        layers["trace.unattributed_frac"] = layers["trace.unattributed_s"] / root \
            if root else 0.0
        return {name: {"value": layers[name], "unit": unit}
                for name, unit in declared("per_layer").items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, to check every code path in seconds")
    args = p.parse_args(argv)
    if not (SRC / "gsdmm" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'gsdmm'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    try:
        if runner.child("generate") is not None:
            runner.measure(bool(args.trace))
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    failures = runner.failures()
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted = len(runner.reps) + (1 if args.trace else 0)
    usable = any(runner.reps) and (runner.traced is not None or not args.trace)
    if not usable:
        print("error: no usable measurement", file=sys.stderr)
        return 1
    failed = len([r for r in runner.reps + ([runner.traced] if args.trace else [])
                  if r is None or r["failures"]])
    if failures and not failed:
        failed = 1  # a failure across runs, such as digests that differ
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted})")
    ok = [r for r in runner.reps if r]
    print(f"ref_s median={median(ok, 'ref_s'):.4f}")
    for name in TIMES:
        print(f"{name} n={len(ok)} raw median={median(ok, name):.4f} "
              f"max={max(r[name] for r in ok):.4f} scaled={TIMES[name](ok, name):.4f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": runner.metrics()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
