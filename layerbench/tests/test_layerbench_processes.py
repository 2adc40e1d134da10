"""A run waits for every process it leaves behind, orphans included."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]

# Run in a child interpreter, so the test process never becomes a
# subreaper.  ``sh`` starts a background command and exits at once,
# which orphans the command, as a process under test orphans its
# helpers.
SCRIPT = textwrap.dedent("""
    import json, subprocess, sys, time
    sys.path.insert(0, sys.argv[1])
    from workloads import adopt_orphans, child_pids, reap_children
    if not adopt_orphans():
        print("null")
        sys.exit(0)
    orphan = int(subprocess.run(
        ["sh", "-c", "(" + sys.argv[2] + ") >/dev/null 2>&1 & echo $!"],
        capture_output=True, text=True, check=True,
    ).stdout)
    adopted = orphan in child_pids()
    started = time.monotonic()
    reap_children(timeout=float(sys.argv[3]))
    print(json.dumps({"adopted": adopted, "left": child_pids(),
                      "waited": time.monotonic() - started}))
""")


def _orphan_then_reap(command: str, timeout: float) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), command, str(timeout)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    outcome = json.loads(completed.stdout)
    if outcome is None:
        pytest.skip("prctl(PR_SET_CHILD_SUBREAPER) is not available")
    return outcome


def test_orphans_are_adopted_and_waited_for():
    outcome = _orphan_then_reap("exec sleep 0.3", timeout=20)
    assert outcome["adopted"]
    assert outcome["left"] == []


@pytest.mark.parametrize("command", [
    "exec sleep 60",
    # Ignores SIGTERM, as a resource tracker does.
    "trap '' TERM; exec sleep 60",
])
def test_an_orphan_that_outlives_the_timeout_is_stopped(command):
    outcome = _orphan_then_reap(command, timeout=0.2)
    assert outcome["adopted"]
    assert outcome["left"] == []
    assert outcome["waited"] < 30
