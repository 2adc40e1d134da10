"""The service-layer concurrency lint (``tools/check_service_concurrency.py``)."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_service_concurrency",
        ROOT / "tools" / "check_service_concurrency.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(tool, tmp_path, source: str) -> list:
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tool.check_file(path)


def _codes(findings) -> list:
    return [finding.split(": ", 1)[1].split()[0] for finding in findings]


class TestImportInCoroutine:
    def test_an_import_inside_async_def_is_sc103(self, tool, tmp_path):
        findings = _check(tool, tmp_path, """
            async def handle(reader):
                import json
                from repro.service import http
                from . import sink
                return json
        """)
        assert _codes(findings) == ["SC103", "SC103", "SC103"]
        assert [f.split(":")[1] for f in findings] == ["3", "4", "5"]
        assert "import of json inside async def" in findings[0]
        assert "import of repro.service inside async def" in findings[1]

    def test_the_suppress_comment_exempts_a_line(self, tool, tmp_path):
        assert _check(tool, tmp_path, """
            async def start():
                import json  # sc: ok
                return json
        """) == []

    def test_a_nested_def_is_not_coroutine_code(self, tool, tmp_path):
        assert _check(tool, tmp_path, """
            async def start(loop):
                def load():
                    import json
                    return json
                return await loop.run_in_executor(None, load)
        """) == []

    def test_imports_outside_coroutines_are_fine(self, tool, tmp_path):
        assert _check(tool, tmp_path, """
            import asyncio

            def serve():
                from repro.service.http import HttpFrontEnd

                async def run():
                    await asyncio.sleep(0)
                    return HttpFrontEnd
                return asyncio.run(run())
        """) == []

    def test_a_blocking_call_is_still_sc101(self, tool, tmp_path):
        findings = _check(tool, tmp_path, """
            import time

            async def tick():
                time.sleep(1)
        """)
        assert _codes(findings) == ["SC101"]


def test_the_service_tree_is_clean(tool):
    assert tool.check_tree(ROOT / "src" / "repro" / "service") == []
