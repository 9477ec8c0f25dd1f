"""Unit tests for the docs check's script-path and dotted-name rules
(``tools/check_docs.py``)."""

from __future__ import annotations

import sys
from pathlib import Path

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
