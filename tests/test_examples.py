"""The service examples run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("batch_service.py", "automaton"),
    ("sharded_batch.py", "byte-identical to the unsharded run"),
], ids=["batch_service", "sharded_batch"])
def test_service_example_runs(script, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(tmp_path)  # the examples write into mkdtemp()
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
