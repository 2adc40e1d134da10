"""What each command imports, pinned in fresh interpreters.

The package ``__init__``s re-export lazily and ``repro.cli`` imports
each command's modules inside the command, so serving a rule set never
loads the rule-induction stack (Figure 3: builder, oracles, checking,
refinement), the site generators or the fleet/shard/adaptation
modules, and ``batch`` never loads asyncio.  Each check runs a new
interpreter, since this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a deploy-and-serve process has no use for.
NOT_ON_THE_SERVE_PATH = (
    "repro.core.builder",
    "repro.core.checking",
    "repro.core.oracle",
    "repro.core.refinement",
    "repro.core.schema_guided",
    "repro.core.xpath_builder",
    "repro.sites.imdb",
    "repro.sites.news",
    "repro.sites.shop",
    "repro.sites.stocks",
    "repro.workbench",
    "repro.clustering.cluster",
    "repro.service.shard",
    "repro.service.supervisor",
    "repro.service.adapt",
    "repro.service.registry.canary",
)


def _python(*args, stdin=subprocess.DEVNULL, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], stdin=stdin, capture_output=True,
        text=True, timeout=60, env=env, cwd=cwd,
    )


def _modules_after(code: str, *, cwd=None) -> set:
    """``sys.modules`` of a fresh interpreter, printed by ``code``."""
    result = _python("-c", code, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _loaded(modules: set, names) -> list:
    return sorted(name for name in names if name in modules)


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """A corpus on disk and a registry pinned to its rules and router."""
    from repro.core.builder import MappingRuleBuilder
    from repro.core.oracle import ScriptedOracle
    from repro.core.repository import RuleRepository
    from repro.service import ArtifactRegistry, ClusterRouter
    from repro.sites.imdb import generate_imdb_site

    root = tmp_path_factory.mktemp("closure")
    site = generate_imdb_site(n_movies=6, n_actors=3, n_search=2, seed=3)
    corpus = root / "corpus"
    corpus.mkdir()
    for index, page in enumerate(site):
        (corpus / f"{page.cluster_hint}-{index:04d}.html").write_text(
            page.html, encoding="utf-8"
        )
    movies = site.pages_with_hint("imdb-movies")
    repository = RuleRepository()
    MappingRuleBuilder(
        movies[:4], ScriptedOracle(), repository=repository,
        cluster_name="imdb-movies", seed=1,
    ).build_all(["title", "rating"])
    router = ClusterRouter.fit({"imdb-movies": movies[:4]})
    registry = ArtifactRegistry(root / "registry")
    registry.pin(registry.publish(repository, router).version)
    return corpus, root / "registry"


def test_import_repro_loads_no_submodule():
    modules = _modules_after(
        "import json, sys; import repro; print(json.dumps(sorted(sys.modules)))"
    )
    # The lazy re-export helper is the one module the package needs.
    assert sorted(m for m in modules if m.startswith("repro")) == [
        "repro", "repro._exports",
    ]


def test_import_cli_loads_no_command_module_and_no_asyncio():
    modules = _modules_after(
        "import json, sys; import repro.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert _loaded(modules, ("asyncio", *NOT_ON_THE_SERVE_PATH)) == []


def test_listening_serve_http_loads_only_the_serve_path(pinned, tmp_path):
    _, registry = pinned
    code = (
        "import json, sys\n"
        "from repro import cli\n"
        "def started(server):\n"
        "    print(json.dumps(sorted(sys.modules)), flush=True)\n"
        "    server.stop()\n"
        "cli.SERVE_HTTP_STARTED = started\n"
        "sys.exit(cli.main(['serve', '--http', '127.0.0.1:0',\n"
        f"    '--registry', {str(registry)!r},\n"
        "    '--repository', 'unread.json']))\n"
    )
    modules = _modules_after(code, cwd=tmp_path)
    assert "asyncio" in modules and "repro.service.http" in modules
    assert _loaded(modules, NOT_ON_THE_SERVE_PATH) == []


def test_batch_on_a_process_pool_loads_no_asyncio(pinned, tmp_path):
    corpus, registry = pinned
    out = tmp_path / "records.jsonl"
    code = (
        "import json, sys\n"
        "from repro import cli\n"
        "code = cli.main(['batch', " + repr(str(corpus)) + ",\n"
        f"    '--registry', {str(registry)!r},\n"
        "    '--repository', 'unread.json', '--workers', '2',\n"
        f"    '--jsonl', {str(out)!r}])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = _modules_after(code, cwd=tmp_path)
    records = [json.loads(line) for line in
               out.read_text(encoding="utf-8").splitlines()]
    assert {record["cluster"] for record in records} == {"imdb-movies"}
    assert _loaded(
        modules, ("asyncio", "repro.service.http", *NOT_ON_THE_SERVE_PATH)
    ) == []


def test_importtime_over_serve_shows_no_rule_builder(pinned, tmp_path):
    _, registry = pinned
    result = _python(
        "-X", "importtime", "-m", "repro.cli", "serve",
        "--registry", str(registry), "--repository", "unread.json",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.service.serve" in imported
    assert "repro.core.builder" not in imported
