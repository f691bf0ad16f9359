"""The walkthroughs in demos/ run end to end in a fresh process: the
library demos 01-03 here, demo 04 in tests/test_preprocess.py, and the
command-line demo 05 here, with a gsdmm command that runs this checkout's
gsdmm.cli."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo,prefix", [
    ("01_synthetic_recovery.py", "final clusters:"),
    ("02_entropy_weighting.py", "table covers"),
    ("03_cluster_merging.py", "after merging: NMI"),
])
def test_demo_runs(demo, prefix):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.lstrip().startswith(prefix) for line in proc.stdout.splitlines())


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_cli_pipeline_demo_runs(tmp_path):
    # a gsdmm command first on PATH, whatever is installed
    shim = tmp_path / "bin" / "gsdmm"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gsdmm.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PATH"] = os.pathsep.join([str(shim.parent), env.get("PATH", "")])
    env["TMPDIR"] = str(tmp_path)  # the demo's mktemp -d
    proc = subprocess.run(["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    log = lines[lines.index("merge log:") + 1:]
    log = log[:log.index("")]
    # --kreal 6 merges the clusters left after sampling, numbered from 1
    assert log[0] == "step,cluster_a,cluster_b,similarity" and len(log) > 1
    assert [row.split(",")[0] for row in log[1:]] == \
        [str(step) for step in range(1, len(log))]
