#!/usr/bin/env python
"""AST lint: blocking calls and imports inside ``async def`` under repro.service.

The service layer mixes three concurrency regimes — the HTTP
front-end's asyncio event loop (with one extraction thread for long
request lines), the batch runtime's process pool, and a pre-fork
supervisor — and the bugs that cross them are invisible to unit tests: a ``time.sleep`` in
a coroutine stalls every connection on the loop, and a ``fork`` after
threads have started deadlocks child processes on inherited locks.
This checker walks the ASTs under ``src/repro/service/`` and flags:

* **SC101** — a blocking call (``time.sleep``, ``socket.*``
  constructors/calls, ``subprocess.*``, ``os.system``/``os.popen``,
  sync file I/O via ``open``/``Path.read_text``/``Path.write_text``,
  ``requests.*``/``urllib.request.*``) lexically inside an ``async
  def`` body.  Nested ``def``/``async def`` bodies are *excluded* —
  a sync helper defined inside a coroutine runs wherever it is
  called, typically an executor.
* **SC102** — a bare fork: ``os.fork()`` or ``multiprocessing`` with
  the fork start method outside the supervisor's dedicated pre-fork
  path (``supervisor.py``, which forks before any thread or loop
  exists by design and documents it).
* **SC103** — an ``import`` statement lexically inside an ``async
  def`` body.  Its first run reads files and executes module code on
  the event loop's thread, so every connection waits; import at
  module level or in the set-up code that starts the loop.  Nested
  ``def`` bodies are excluded, as for SC101.

Suppress a deliberate violation with a ``# sc: ok`` comment on the
offending line (the supervisor's fork and the loop's startup-only
reads use it).  Exit status: 0 clean, 1 findings, 2 usage errors.

Run from the repository root (CI's lint job does)::

    python tools/check_service_concurrency.py [ROOT]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_ROOT = Path("src/repro/service")

#: ``module.attr`` dotted names that block the calling thread.
BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.wait",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.socket",
    "socket.create_connection",
    "socket.create_server",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}

#: Bare-name calls that block (sync file I/O entry points).
BLOCKING_NAMES = {"open", "input"}

#: Method names that do sync file I/O on any receiver — matching by
#: attribute name is deliberately coarse; the suppress comment covers
#: the rare intentional use (e.g. startup-only config reads).
BLOCKING_METHODS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}

#: Dotted names that fork the process.
FORK_CALLS = {"os.fork", "os.forkpty"}

#: Files allowed to fork: the pre-fork supervisor forks before any
#: event loop or thread exists, by design.
FORK_ALLOWED_FILES = {"supervisor.py"}

SUPPRESS_MARKER = "# sc: ok"


def _dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for an attribute/name chain, or ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _AsyncBlockingVisitor(ast.NodeVisitor):
    """Collect blocking calls and imports lexically inside coroutine bodies."""

    def __init__(self, path: Path, source_lines: list):
        self.path = path
        self.lines = source_lines
        self.findings: list = []
        self._async_depth = 0

    # -- scope tracking -------------------------------------------------- #

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A sync def nested in a coroutine is not coroutine code.
        saved, self._async_depth = self._async_depth, 0
        self.generic_visit(node)
        self._async_depth = saved

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved, self._async_depth = self._async_depth, 0
        self.generic_visit(node)
        self._async_depth = saved

    # -- imports ---------------------------------------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        self._flag_import(node, ", ".join(a.name for a in node.names))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._flag_import(node, "." * node.level + (node.module or ""))

    def _flag_import(self, node: ast.Import | ast.ImportFrom,
                     what: str) -> None:
        if self._async_depth > 0:
            self._flag(
                "SC103", node,
                f"import of {what} inside async def (its first run "
                "executes module code on the event loop; import it "
                "before the loop starts)",
            )

    # -- calls ------------------------------------------------------------ #

    def _suppressed(self, lineno: int) -> bool:
        line = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
        return SUPPRESS_MARKER in line

    def _flag(self, code: str, node: ast.stmt | ast.expr, what: str) -> None:
        if self._suppressed(node.lineno):
            return
        self.findings.append(
            f"{self.path}:{node.lineno}: {code} {what}"
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if self._async_depth > 0:
            if dotted in BLOCKING_CALLS:
                self._flag(
                    "SC101", node,
                    f"blocking call {dotted}() inside async def "
                    "(run it in an executor)",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in BLOCKING_NAMES
            ):
                self._flag(
                    "SC101", node,
                    f"sync I/O call {node.func.id}() inside async def "
                    "(run it in an executor)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in BLOCKING_METHODS
            ):
                self._flag(
                    "SC101", node,
                    f"sync file I/O .{node.func.attr}() inside async "
                    "def (run it in an executor)",
                )
        if (
            dotted in FORK_CALLS
            and self.path.name not in FORK_ALLOWED_FILES
        ):
            self._flag(
                "SC102", node,
                f"bare {dotted}() outside the supervisor's pre-fork "
                "path (forking after threads/loops start inherits "
                "held locks)",
            )
        self.generic_visit(node)


def check_file(path: Path) -> list:
    """All findings for one Python source file."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}: SC100 file does not parse: {exc.msg}"]
    visitor = _AsyncBlockingVisitor(path, source.splitlines())
    visitor.visit(tree)
    return visitor.findings


def check_tree(root: Path) -> list:
    """All findings under ``root``, in deterministic path order."""
    findings: list = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(check_file(path))
    return findings


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else DEFAULT_ROOT
    if not root.exists():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    findings = check_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"{len(findings)} concurrency finding(s) under {root}",
            file=sys.stderr,
        )
        return 1
    print(f"service concurrency check clean under {root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
