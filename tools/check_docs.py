#!/usr/bin/env python
"""Docs check: README code snippets must execute, the runner CLI
must list every registered experiment, the docs and code name no
script and no ``repro.…`` name that does not exist, and every public
name is used by code that runs.

Run from the repository root::

    python tools/check_docs.py

Extracts every ```python fenced block from README.md and executes it in
a fresh namespace (so snippets stay honest as the API evolves), then
runs ``python -m repro.experiments --list`` and checks the registry is
fully enumerated, then checks that every ``tools/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` ``.py`` path named in :data:`DOCS`
exists, then that every dotted ``repro.…`` name in :data:`DOCS` and in
the ``.py`` files under :data:`CODE_DIRS` resolves, then that every
name in a ``src/repro`` module's ``__all__`` is reachable (see
:func:`check_reachability`).  Exits non-zero on the first failure.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from collections.abc import Iterator, Mapping
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: Docs whose script paths must resolve, relative to the repo root.
DOCS = ("README.md", "docs/architecture.md", ".claude/skills/verify/SKILL.md")

_SCRIPT = re.compile(
    r"(?<![\w./-])(?:tools|benchmarks|examples|perfbench)/[\w/]+\.py\b"
)

_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")

#: Trees of code that runs: examples, benchmarks, tools and perfbench
#: call into ``src/``; ``tests/`` is deliberately absent.
CODE_DIRS = ("src", "examples", "benchmarks", "tools", "perfbench")

#: ``__all__`` names that only their unit tests call, kept on purpose:
#: each is the per-call, NaN-rejecting entry to a prepared kernel
#: helper (``docs/architecture.md``), and its tests check the model's
#: equations through it.
REACHABLE_BY_DESIGN: dict[str, str] = {
    "repro.microarch.cache.cache_shares":
        "checked entry to cache.share_allocator; tests pin LLC sharing",
    "repro.microarch.fetch.rival_weights":
        "checked entry to fetch.rival_weigher; tests pin fetch rivalry",
    "repro.microarch.fetch.water_fill":
        "checked entry to fetch.water_filler; tests pin water-filling",
    "repro.microarch.membus.bus_queueing_delay":
        "checked entry to membus.bus_model; tests pin the bus queue",
    "repro.microarch.rob.occupancy_demand":
        "checked entry to rob.window_allocator; tests pin ROB demand",
    "repro.microarch.rob.window_shares":
        "checked entry to rob.window_allocator; tests pin ROB shares",
    "repro.microarch.smt_core.evaluate_smt":
        "one evaluation of the SMT map; tests pin its equations",
    "repro.microarch.multicore.evaluate_multicore":
        "one evaluation of the multicore map; tests pin its equations",
}


def check_readme_snippets() -> int:
    sys.path.insert(0, str(SRC))
    text = (ROOT / "README.md").read_text()
    snippets = _FENCE.findall(text)
    if not snippets:
        print("FAIL: README.md has no ```python snippets to check")
        return 1
    for i, snippet in enumerate(snippets, 1):
        try:
            exec(compile(snippet, f"README.md[snippet {i}]", "exec"), {})
        except Exception as exc:  # noqa: BLE001 - report and fail
            print(f"FAIL: README snippet {i} raised {exc!r}:\n{snippet}")
            return 1
        print(f"ok: README snippet {i} ({len(snippet.splitlines())} lines)")
    return 0


def check_cli_list() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--list"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    if proc.returncode != 0:
        print(f"FAIL: --list exited {proc.returncode}:\n{proc.stderr}")
        return 1
    sys.path.insert(0, str(SRC))
    from repro.experiments import registry

    missing = [n for n in registry.names() if n not in proc.stdout]
    if missing:
        print(f"FAIL: --list is missing experiments: {missing}")
        return 1
    print(f"ok: --list enumerates all {len(registry.names())} experiments")
    return 0


def check_script_paths(root: Path = ROOT) -> int:
    dangling = [
        f"{doc}: {path}"
        for doc in DOCS
        for path in sorted(set(_SCRIPT.findall((root / doc).read_text())))
        if not (root / path).exists()
    ]
    if dangling:
        print("FAIL: docs name scripts that do not exist:\n  "
              + "\n  ".join(dangling))
        return 1
    print(f"ok: every script path named in {len(DOCS)} docs exists")
    return 0


def resolves(name: str) -> bool:
    """Whether dotted ``name`` is a module, or an attribute path under
    the longest importable module prefix of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not f"{module}.".startswith(f"{exc.name}."):
                raise  # the module exists but its own import failed
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def code_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under :data:`CODE_DIRS`, in a stable order."""
    for top in CODE_DIRS:
        if (root / top).is_dir():
            yield from sorted((root / top).rglob("*.py"))


def check_dotted_names(root: Path = ROOT) -> int:
    sys.path.insert(0, str(SRC))
    texts = [(doc, (root / doc).read_text()) for doc in DOCS] + [
        (str(path.relative_to(root)), path.read_text())
        for path in code_files(root)
    ]
    dangling = [
        f"{where}: {name}"
        for where, text in texts
        for name in sorted(set(_DOTTED.findall(text)))
        if not resolves(name)
    ]
    if dangling:
        print("FAIL: docs or code name repro.… names that do not "
              "resolve:\n  " + "\n  ".join(dangling))
        return 1
    print(f"ok: every repro.… name in {len(DOCS)} docs and "
          f"{len(texts) - len(DOCS)} code files resolves")
    return 0


def exported_names(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` a module assigns at top level, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def used_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names and attributes, and what it
    imports ``from`` another module.  Strings and docstrings are not
    uses."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def check_reachability(
    root: Path = ROOT,
    allowlist: Mapping[str, str] = REACHABLE_BY_DESIGN,
) -> int:
    """Every name in the ``__all__`` of a non-``__init__`` module under
    ``src/repro`` must be used by non-``__init__`` code under
    :data:`CODE_DIRS`, its own module included (that code runs).  Tests
    and package re-exports do not count, and names match by their bare
    identifier.  An ``allowlist`` entry (dotted name → reason) exempts a
    name, and fails once it is stale: no longer exported, or used."""
    used: set[str] = set()
    exports: list[str] = []
    for path in code_files(root):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used |= used_names(tree)
        rel = path.relative_to(root)
        if rel.parts[:2] == ("src", "repro"):
            module = ".".join(rel.with_suffix("").parts[1:])
            exports += [f"{module}.{name}" for name in exported_names(tree)]
    unused = {name for name in exports if name.rpartition(".")[2] not in used}
    dead = sorted(unused - set(allowlist))
    stale = sorted(set(allowlist) - unused)
    if dead or stale:
        print("FAIL: public names that no code under "
              f"{', '.join(CODE_DIRS)} uses (tests do not count):\n  "
              + "\n  ".join(dead + [f"{n} (stale allowlist entry)"
                                    for n in stale]))
        return 1
    print(f"ok: all {len(exports)} __all__ names are used by code that "
          f"runs ({len(allowlist)} allowlisted)")
    return 0


def main() -> int:
    return (
        check_readme_snippets()
        or check_cli_list()
        or check_script_paths()
        or check_dotted_names()
        or check_reachability()
    )


if __name__ == "__main__":
    sys.exit(main())
