"""The library walkthroughs in demos/ run end to end in a fresh process.
Demo 04 is run by tests/test_preprocess.py."""

import os
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
