"""The package surface and its import boundary: graph-only callers never load numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalbell
from causalbell import bell, distributions, graph, report, separation
from causalbell.bell import bell_dag, format_behavior, pr_box

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = (graph, report, separation, distributions, bell)


def _numpy_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter with ``PYTHONPATH=src`` has imported numpy after ``code``."""
    probe = f"{code}\nimport sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "bell.dag").write_text(bell_dag().to_text())
    (root / "pr.behavior").write_text(format_behavior(pr_box()))
    return root


def test_package_and_cli_imports_skip_numpy():
    assert not _numpy_loaded_after("import causalbell")
    assert not _numpy_loaded_after("import causalbell.cli")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["dsep", "{dag}", "--x", "X", "--y", "Y", "--z", "A,B"], False),
    (["qsep", "{dag}", "--x", "A", "--y", "B", "--z", "Lambda"], False),
    (["compare", "{dag}"], False),
    (["bell-member", "{pr}"], True),  # control: the probe does see numpy
    (["gen", "bell-dag"], False),
])
def test_only_numpy_backed_verbs_import_numpy(inputs, argv, loads_numpy):
    argv = [a.format(dag=inputs / "bell.dag", pr=inputs / "pr.behavior") for a in argv]
    code = f"from causalbell.cli import run\nassert run({argv!r}) in (0, 1)"
    assert _numpy_loaded_after(code) == loads_numpy


def test_cli_imports_no_numpy_backed_module():
    # the package's lazy table is the one numpy boundary; the CLI reaches those names through it
    tree = ast.parse((Path(SRC) / "causalbell" / "cli.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
            named.update(alias.name for alias in node.names)
    assert not named & {"bell", "distributions", "simplex"}


def test_every_public_name_is_its_defining_modules_object():
    for name in causalbell.__all__:
        value = getattr(causalbell, name)
        homes = [m for m in MODULES if name in vars(m)]
        assert homes, name
        assert all(vars(m)[name] is value for m in homes), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from causalbell import *", namespace)
    for name in causalbell.__all__:
        assert namespace[name] is getattr(causalbell, name), name
    assert set(causalbell.__all__) <= set(dir(causalbell))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'causalbell' has no attribute 'nope'"):
        causalbell.nope  # noqa: B018
