"""Unit tests for the docs check's script-path, dotted-name and
reachability rules (``tools/check_docs.py``)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_docs  # noqa: E402


def make_docs(root: Path, text: str) -> None:
    for doc in check_docs.DOCS:
        (root / doc).parent.mkdir(parents=True, exist_ok=True)
        (root / doc).write_text(text)


def test_repo_docs_name_only_existing_scripts():
    assert check_docs.check_script_paths() == 0


def test_dangling_script_path_fails(tmp_path, capsys):
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "real.py").write_text("")
    make_docs(tmp_path, "run `python tools/real.py` or tools/gone.py\n")
    assert check_docs.check_script_paths(tmp_path) == 1
    out = capsys.readouterr().out
    assert "README.md: tools/gone.py" in out
    assert "tools/real.py" not in out


def test_paths_inside_other_trees_are_not_scripts(tmp_path):
    make_docs(tmp_path, "see src/repro/tools/helper.py and x/benchmarks/y.py\n")
    assert check_docs.check_script_paths(tmp_path) == 0


def test_repo_docs_name_only_resolving_dotted_names():
    assert check_docs.check_dotted_names() == 0


def test_dangling_dotted_name_fails(tmp_path, capsys):
    make_docs(
        tmp_path,
        "`repro.experiments.common.run_cells` runs cells; "
        "`repro.queueing.estimation.OracleRateSource` is gone, as is "
        "`repro.nowhere`.  src/repro/util/rng.py is a path.\n",
    )
    assert check_docs.check_dotted_names(tmp_path) == 1
    out = capsys.readouterr().out
    assert "README.md: repro.queueing.estimation.OracleRateSource" in out
    assert "README.md: repro.nowhere" in out
    assert "run_cells" not in out
    assert "rng" not in out


def test_stale_dotted_name_in_code_fails(tmp_path, capsys):
    make_docs(tmp_path, "no names here\n")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        '"""See :mod:`repro.core.coschedule` and :mod:`repro.lp`."""\n'
    )
    assert check_docs.check_dotted_names(tmp_path) == 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py: repro.core.coschedule" in out
    assert "repro.lp\n" not in out


def make_tree(root: Path, module: str, files: dict[str, str]) -> None:
    """A scratch repo whose package ``repro.pkg`` re-exports every
    public name of ``repro.pkg.mod`` (source ``module``)."""
    pkg = root / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from repro.pkg.mod import *  # noqa\n")
    (pkg / "mod.py").write_text(module)
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


MODULE = '''"""Mentions dead() in a docstring."""
__all__ = ["used", "dead"]


def used():
    return 1


def dead():
    return 2
'''

CALLER = {
    "tools/run.py": 'from repro.pkg.mod import used\nused()\nprint("dead")\n'
}


def test_public_function_nothing_calls_fails(tmp_path, capsys):
    make_tree(tmp_path, MODULE, CALLER)
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 1
    out = capsys.readouterr().out
    assert "repro.pkg.mod.dead" in out
    assert "repro.pkg.mod.used" not in out


def test_name_only_a_test_calls_fails(tmp_path, capsys):
    test = {"tests/test_mod.py": "from repro.pkg.mod import dead\ndead()\n"}
    make_tree(tmp_path, MODULE, {**CALLER, **test})
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 1
    assert "repro.pkg.mod.dead" in capsys.readouterr().out


def test_allowlisted_name_passes(tmp_path):
    make_tree(tmp_path, MODULE, CALLER)
    allowlist = {"repro.pkg.mod.dead": "a test oracle"}
    assert check_docs.check_reachability(tmp_path, allowlist) == 0


def test_stale_allowlist_entry_fails(tmp_path, capsys):
    make_tree(tmp_path, MODULE, CALLER)
    allowlist = {
        "repro.pkg.mod.dead": "a test oracle",
        "repro.pkg.mod.used": "code uses it now",
        "repro.pkg.gone.name": "no longer exported",
    }
    assert check_docs.check_reachability(tmp_path, allowlist) == 1
    out = capsys.readouterr().out
    assert "repro.pkg.mod.used (stale allowlist entry)" in out
    assert "repro.pkg.gone.name (stale allowlist entry)" in out


def test_name_used_only_inside_its_own_module_passes(tmp_path):
    module = (
        '__all__ = ["LIMIT"]\nLIMIT = 3\n\n\n'
        "def _bound(x):\n    return min(x, LIMIT)\n"
    )
    make_tree(tmp_path, module, {})
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 0


def test_repo_public_names_are_all_reachable():
    assert check_docs.check_reachability() == 0


def test_reexport_in_a_caller_package_is_not_a_use(tmp_path, capsys):
    reexport = {
        "tools/helpers/__init__.py": "from repro.pkg.mod import dead\n"
    }
    make_tree(tmp_path, MODULE, {**CALLER, **reexport})
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 1
    assert "repro.pkg.mod.dead" in capsys.readouterr().out


def test_attribute_use_counts(tmp_path):
    caller = {
        "tools/run.py": "import repro.pkg.mod as mod\nmod.used()\nmod.dead()\n"
    }
    make_tree(tmp_path, MODULE, caller)
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 0


CALLER_DIRS = ["examples", "benchmarks", "tools", "perfbench"]


@pytest.mark.parametrize("caller_dir", CALLER_DIRS)
def test_use_from_each_caller_tree_counts(tmp_path, caller_dir):
    caller = f"{caller_dir}/run.py"
    uses = {caller: "from repro.pkg.mod import used, dead\nused()\ndead()\n"}
    make_tree(tmp_path, MODULE, uses)
    assert check_docs.check_reachability(tmp_path, allowlist={}) == 0


@pytest.mark.parametrize("code_dir", CALLER_DIRS)
def test_stale_dotted_name_in_each_code_tree_fails(
    tmp_path, capsys, code_dir
):
    make_docs(tmp_path, "no names here\n")
    (tmp_path / code_dir).mkdir()
    (tmp_path / code_dir / "run.py").write_text(
        "# Formerly repro.core.coschedule.\n"
    )
    assert check_docs.check_dotted_names(tmp_path) == 1
    assert (
        f"{code_dir}/run.py: repro.core.coschedule"
        in capsys.readouterr().out
    )


@pytest.mark.parametrize("name", sorted(check_docs.REACHABLE_BY_DESIGN))
def test_allowlist_reason_holds(name):
    """Each allowlisted name is documented as a checked entry and is
    still called by a test, as its reason says."""
    bare = name.rpartition(".")[2]
    assert bare in (check_docs.ROOT / "docs" / "architecture.md").read_text()
    callers = [
        path
        for path in sorted((check_docs.ROOT / "tests").rglob("test_*.py"))
        if bare in check_docs.used_names(ast.parse(path.read_text()))
    ]
    assert callers, f"no test calls {name}"
