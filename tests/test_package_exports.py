"""The lazily re-exporting packages keep every public name.

Seven package ``__init__``s re-export their submodules' names through
:func:`repro._exports.lazy_exports` instead of importing them eagerly.
Nothing a caller can name may change: each ``__all__`` name is the
defining module's object, ``dir()`` lists it before it is loaded,
``from pkg import *`` binds exactly ``__all__``, and an unknown name is
an ``AttributeError`` naming the package.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.extraction",
    "repro.clustering",
    "repro.sites",
    "repro.service",
    "repro.service.registry",
)

#: Run in a fresh interpreter, so that no name is loaded beforehand.
_REPORT = """
import importlib, json, sys
packages = {names!r}
report = {{name: {{}} for name in packages}}
for name in packages:
    report[name]["dir"] = dir(importlib.import_module(name))
for name in packages:
    namespace = {{}}
    exec(f"from {{name}} import *", namespace)
    report[name]["star"] = sorted(set(namespace) - {{"__builtins__"}})
print(json.dumps(report))
"""


def _fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def fresh_report():
    return json.loads(_fresh(_REPORT.format(names=LAZY_PACKAGES)))


def _defining_module(package: str, name: str, value) -> types.ModuleType:
    """The module (not a package ``__init__``) that binds ``value``."""
    if isinstance(value, (type, types.FunctionType)):
        module = sys.modules[value.__module__]
        assert getattr(module, value.__qualname__) is value
        return module
    # A constant: the loaded submodule that binds the same object.
    for module_name, module in sorted(sys.modules.items()):
        if (
            module_name.startswith(package + ".")
            and not hasattr(module, "__path__")
            and vars(module).get(name, object()) is value
        ):
            return module
    raise AssertionError(f"{package}.{name} is bound in no submodule")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestPublicNames:
    def test_every_name_is_the_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            if name == "__version__":
                continue
            value = getattr(package, name)
            module = _defining_module(package_name, name, value)
            assert module.__name__.startswith(package_name + ".")
            assert not hasattr(module, "__path__")
            assert getattr(module, name) is value

    def test_dir_lists_all_before_any_name_is_loaded(
        self, package_name, fresh_report
    ):
        package = importlib.import_module(package_name)
        listed = fresh_report[package_name]["dir"]
        assert set(package.__all__) <= set(listed)
        assert listed == sorted(listed)

    def test_star_import_binds_exactly_all(self, package_name, fresh_report):
        package = importlib.import_module(package_name)
        assert fresh_report[package_name]["star"] == sorted(package.__all__)

    def test_an_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=repr(package_name)):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")
        assert not hasattr(package, "__no_such_dunder__")


def test_a_submodule_name_is_still_the_submodule():
    from repro.service import serve

    assert isinstance(serve, types.ModuleType)
    assert serve is sys.modules["repro.service.serve"]


def test_attribute_paths_through_unloaded_packages_resolve():
    out = _fresh(
        "import repro\n"
        "print(repro.core.MappingRule.__module__)\n"
        "print(repro.xpath.select.__module__)\n"
        "print(repro.service.registry.ArtifactRegistry.__module__)\n"
    )
    assert out.split() == [
        "repro.core.rule", "repro.xpath.engine",
        "repro.service.registry.store",
    ]
