"""Which modules a study loads, and which packages may import which.

``repro.tune`` resolves its re-exports on first access, so a module
that needs only :mod:`repro.tune.slo` (D3 inside Table I, D8) loads no
other ``repro.tune`` module. ``repro.surrogate`` builds on
``repro.tune``, never the other way round: the agreement statistics
both read live in :mod:`repro.metrics.agreement`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

_CHILD_PROGRAM = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


def loaded_after_import(module: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after one import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM, module],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", ["repro.core.table_one", "repro.core.d8_online"])
def test_study_loads_only_the_slo_module_of_repro_tune(module):
    loaded = loaded_after_import(module)
    assert [name for name in loaded if name.startswith("repro.tune.")] == [
        "repro.tune.slo"
    ]
    assert not [name for name in loaded if name.startswith("repro.surrogate")]


def test_re_exports_resolve_on_first_access():
    import repro.tune

    assert repro.tune.parse_slo is repro.tune.slo.parse_slo
    assert repro.tune.build_space.__module__ == "repro.tune.space"
    assert set(repro.tune.__all__) <= set(dir(repro.tune))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.tune.nope  # noqa: B018


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Every module an ``import`` or ``from ... import`` in ``path`` names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_repro_tune_never_imports_repro_surrogate():
    files = sorted((ROOT / "src" / "repro" / "tune").glob("*.py"))
    assert files
    for path in files:
        offending = [
            name
            for name in _imported_modules(path)
            if name == "repro.surrogate" or name.startswith("repro.surrogate.")
        ]
        assert not offending, f"{path.name} imports {offending}"
