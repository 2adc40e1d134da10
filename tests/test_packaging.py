"""The ``setup.py`` shim carries the package's real metadata."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reports_the_package_name_and_version(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "--name", "--version"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", repro.__version__]
