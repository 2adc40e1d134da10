"""The timed runs: each workload end to end, with tracing off.

Both are closed loops driven by one generator (this process):

* ``serve_mix``: a ``serve --http`` process deployed from the registry,
  one keep-alive connection, ``POST /extract`` per page;
* ``batch_mix``: the ``batch`` composition in :mod:`harness`, one
  ``run()`` per segment of the run, over the corpus cycled until the
  segment's deadline.

Cold starts for ``setup_s`` are spread through the run: between
rounds on serve_mix, between segments on batch_mix (never while a
timed process is busy).  Every answer is checked against the
generator's ground truth.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from estimators import (
    Tally,
    latency_summary,
    median_of,
    request_latencies,
    round_rates,
)
from pages import batch_file

HARNESS = Path(__file__).resolve().parent / "harness.py"

#: Cold starts per run that ``setup_s`` is estimated from.
SETUP_STARTS = 16
#: batch_mix: ``run()`` segments per run; the cold starts are shared
#: out over the SEGMENTS + 1 gaps before, between and after them.
SEGMENTS = 3
#: Seconds a process may take to become ready or to exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: ``prctl(2)`` option that makes a process adopt orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Context:
    """Where a run's inputs live and how to launch the program."""

    root: Path
    env: dict
    registry: Path
    rules: Path
    work: Path


@dataclass
class Outcome:
    """One run's metrics by name, plus its judged answers."""

    metrics: dict
    tally: Tally = field(default_factory=Tally)
    details: dict = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #


class LineReader:
    """Lines of a child's pipe, waited for with a timeout."""

    def __init__(self, stream) -> None:
        self.fd = stream.fileno()
        self.buffer = b""

    def wait_for(self, marker: str, timeout: float) -> str:
        """Read until a line containing ``marker``; return that line."""
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self.buffer:
                line, self.buffer = self.buffer.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if marker in text:
                    return text
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {marker!r} within {timeout} s")
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 65536)
                if not chunk:
                    raise RuntimeError(f"process exited before {marker!r}")
                self.buffer += chunk


def stop(process: subprocess.Popen, terminate: bool = True) -> None:
    """Wait for ``process`` (after SIGTERM unless ``terminate`` is off),
    killing it if it will not exit."""
    if terminate and process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def adopt_orphans() -> bool:
    """Make this process the parent of its orphaned descendants (Linux).

    A process under test can leave a helper that outlives it: the
    ``multiprocessing`` resource tracker that the shared-memory page
    transport starts exits only after the process that started it.
    Orphans are otherwise handed to PID 1, which need not wait for
    them; adopted, they are this process's children, and
    :func:`reap_children` waits for them.  Returns False where
    ``prctl`` is not available.
    """
    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def child_pids() -> list[int]:
    """Pids of this process's children, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8",
                      errors="replace") as stat:
                # "pid (comm) state ppid ...": comm may hold spaces.
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(timeout: float = STOP_TIMEOUT) -> None:
    """Wait until this process has no children, adopted ones too.

    Children still running after ``timeout`` seconds get SIGTERM, and
    SIGKILL ``timeout`` seconds later.  SIGTERM first, because a
    resource tracker ignores it: once the processes that share its pipe
    are gone, it unlinks the shared memory they left and exits.
    """
    deadline = time.monotonic() + timeout
    sent = None
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            sent = signal.SIGKILL if sent else signal.SIGTERM
            for child in child_pids():
                try:
                    os.kill(child, sent)
                except ProcessLookupError:
                    pass
            # Killed children may leave orphans: sweep again soon.
            deadline = time.monotonic() + (
                timeout if sent == signal.SIGTERM else 0.1
            )
        time.sleep(0.01)


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """A ``serve --http`` process, timed from launch until it listens."""

    def __init__(self, ctx: Context) -> None:
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--http", "127.0.0.1:0", "--registry", str(ctx.registry),
             "--repository", str(ctx.rules)],
            cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            line = LineReader(self.process.stderr).wait_for(
                "serving HTTP on ", START_TIMEOUT
            )
        except BaseException:
            stop(self.process)
            raise
        self.ready_s = time.perf_counter() - launched
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Shut the server down and wait for it."""
        stop(self.process)


def serve_cold_start(ctx: Context) -> float:
    """Seconds from launching ``serve --http`` until it listens."""
    server = Server(ctx)
    server.stop()
    return server.ready_s


def harness_command(ctx: Context, *args: str) -> list[str]:
    """Command line of one :mod:`harness` invocation."""
    return [sys.executable, str(HARNESS), *args,
            "--registry", str(ctx.registry), "--rules", str(ctx.rules)]


def harness_ready(ctx: Context, kind: str, sample: Path) -> tuple:
    """Launch a set-up probe: ``(seconds to ready, phases in ms)``.

    Ready means built and with the command's executor started.
    """
    launched = time.perf_counter()
    process = subprocess.Popen(
        harness_command(ctx, "ready", "--kind", kind,
                        "--sample", str(sample)),
        cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        line = LineReader(process.stdout).wait_for('"ready"', START_TIMEOUT)
        ready_s = time.perf_counter() - launched
    except BaseException:
        stop(process)
        raise
    stop(process, terminate=False)
    if process.returncode != 0:
        raise RuntimeError(f"set-up probe exited {process.returncode}")
    return ready_s, json.loads(line)["ready"]


def run_harness(ctx: Context, mode: str, corpus: Path,
                seconds: float, *extra: str) -> dict:
    """Run a harness loop to completion and return its result file."""
    out = ctx.work / f"harness-{mode}.json"
    out.unlink(missing_ok=True)
    process = subprocess.Popen(
        harness_command(ctx, mode, "--corpus", str(corpus),
                        "--seconds", str(seconds), "--out", str(out),
                        *extra),
        cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
    )
    try:
        process.wait(timeout=seconds + 120)
    except BaseException:
        # SIGTERM, not SIGKILL: the harness then cleans up after run().
        stop(process)
        raise
    if process.returncode != 0:
        raise subprocess.CalledProcessError(process.returncode,
                                            process.args)
    return json.loads(out.read_text(encoding="utf-8"))


def _end_to_end(rounds, per_request, starts, rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics plus the details that qualify them."""
    throughput = round_rates(rounds)
    latency = latency_summary(per_request)
    return {
        "pages_per_s": throughput["pages_per_s"],
        "kb_per_s": throughput["kb_per_s"],
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "setup_s": median_of(starts),
        "peak_rss_mb": rss_mb,
    }, {
        "rounds": throughput["rounds"],
        "latency_samples": latency["samples"],
        "tail_percentile": latency["tail_percentile"],
        "setup_samples": starts,
        "round_seconds": [seconds for _, _, seconds in rounds],
        "request_ms": sorted(s * 1000 for s in per_request.values()),
    }


# --------------------------------------------------------------------- #
# serve_mix
# --------------------------------------------------------------------- #


class Client:
    """One keep-alive connection posting pages to ``/extract``."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=START_TIMEOUT
        )

    def extract(self, body: bytes) -> tuple[int, bytes]:
        """POST one page; returns ``(status, body)``."""
        self.connection.request(
            "POST", "/extract", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        """Close the connection."""
        self.connection.close()


def judge_http(tally: Tally, page, status: int, body: bytes) -> None:
    """Judge one HTTP answer."""
    tally.judge(page, json.loads(body) if status == 200 else None, status)


def serve_mix(ctx: Context, rounds: list, seconds: float) -> Outcome:
    """Timed serve_mix: rounds of requests over one connection.

    One cold start of ``serve --http`` is taken every
    ``seconds / SETUP_STARTS`` between rounds, while the timed server
    sits idle.
    """
    starts = [serve_cold_start(ctx)]
    server = Server(ctx)
    outcome = Outcome(metrics={})
    bodies = [[page.request_line().encode("utf-8") for page in chunk]
              for chunk in rounds]
    timed, sends = [], []
    try:
        client = Client(server.port)
        try:
            for page, body in zip(rounds[0], bodies[0]):  # warm-up
                judge_http(outcome.tally, page, *client.extract(body))
            begun = time.perf_counter()
            deadline = begun + seconds
            every = seconds / SETUP_STARTS
            round_id = 0
            while time.perf_counter() < deadline:
                if (len(starts) < SETUP_STARTS and time.perf_counter()
                        >= begun + len(starts) * every):
                    starts.append(serve_cold_start(ctx))
                chunk = rounds[round_id]
                answers = []
                gc.collect()
                started = time.perf_counter()
                for index, body in enumerate(bodies[round_id]):
                    sent = time.perf_counter()
                    answers.append(client.extract(body))
                    sends.append(((round_id, index),
                                  time.perf_counter() - sent))
                timed.append((len(chunk), sum(p.kb for p in chunk),
                              time.perf_counter() - started))
                for page, (status, body) in zip(chunk, answers):
                    judge_http(outcome.tally, page, status, body)
                round_id = (round_id + 1) % len(rounds)
        finally:
            client.close()
        rss = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    while len(starts) < SETUP_STARTS:
        starts.append(serve_cold_start(ctx))
    outcome.metrics, outcome.details = _end_to_end(
        timed, request_latencies(sends), starts, rss
    )
    return outcome


# --------------------------------------------------------------------- #
# batch_mix
# --------------------------------------------------------------------- #


def batch_mix(ctx: Context, corpus_dir: Path, seconds: float) -> Outcome:
    """Timed batch_mix: SEGMENTS ``run()`` calls, cold starts between.

    A segment is one ``batch`` invocation's ``run()`` over the corpus,
    cycled until ``seconds / SEGMENTS`` are up; its output is cut into
    windows of at least one corpus batch (100 pages).  Throughput is
    taken over windows, and a window's time is also its latency: what a
    ``batch`` caller waits for each further 100 records.  A page's
    position inside a batch is queue order, not latency, and is not
    reported.
    """
    sample = batch_file(corpus_dir, 0, 0)

    def cold_starts() -> list[float]:
        return [harness_ready(ctx, "batch", sample)[0]
                for _ in range(SETUP_STARTS // (SEGMENTS + 1))]

    outcome = Outcome(metrics={})
    starts, windows, busy, rss = cold_starts(), [], [], []
    for _ in range(SEGMENTS):
        result = run_harness(ctx, "batch", corpus_dir, seconds / SEGMENTS)
        outcome.tally.merge(result["verdict"])
        windows += result["windows"]
        busy.append(result["busy"])
        rss.append(result["rss_mb"])
        starts += cold_starts()
    outcome.metrics, outcome.details = _end_to_end(
        [(pages, kb, s) for _, pages, kb, s in windows],
        request_latencies((batch, s) for batch, _, _, s in windows),
        starts, max(rss),
    )
    outcome.details.update(workers=result["workers"], busy=busy)
    return outcome
