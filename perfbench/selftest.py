"""The benchmark's own test: every workload in smoke mode, untraced and
traced, plus the refusal to run without the package source.

    python3 -m pytest -q perfbench/selftest.py
    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    return result


def check_untraced(workload: str) -> None:
    result = _result(_run(workload, 0))
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def check_traced(workload: str) -> None:
    proc = _run(workload, 1)
    result = _result(proc)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.hook_errors"] == 0
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("corpus", "cli", "model", "sampler", "merge", "evaluation"))
    assert abs(layers + m["trace.unattributed_s"] - m["trace.root_s"]) < 1e-6
    if workload.startswith("gsdmm-"):
        assert m["model.word_entropy.calls"] == 0
    if workload == "gsdmm-k500":
        assert m["model.cluster_log_scores.live_frac"] < 0.5
    if workload == "plus-k300":
        assert m["model.word_entropy.calls"] > 0
        assert m["model.cluster_log_scores.live_frac"] == 1.0
        assert m["merge.steps"] > 0
    if workload == "cli-pipeline":
        assert m["cli.read_archive.calls"] == 3
        assert m["cli.cmd_preprocess.s"] > 0 and m["model.top_words.s"] > 0
    assert "trace targets not found" not in proc.stderr


def test_untraced():
    for w in BENCH["workloads"]:
        check_untraced(w["name"])


def test_traced():
    for w in BENCH["workloads"]:
        check_traced(w["name"])


def test_refuses_without_package_source():
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(BENCH["workloads"][0]["name"], 0, cwd=bare, smoke=False)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_untraced, test_traced, test_refuses_without_package_source):
        test()
        print(f"{test.__name__}: ok")
