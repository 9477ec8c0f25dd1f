#!/usr/bin/env python
"""Docs check: README code snippets must execute, the runner CLI
must list every registered experiment, and the docs name no script
and no ``repro.…`` name that does not exist.

Run from the repository root::

    python tools/check_docs.py

Extracts every ```python fenced block from README.md and executes it in
a fresh namespace (so snippets stay honest as the API evolves), then
runs ``python -m repro.experiments --list`` and checks the registry is
fully enumerated, then checks that every ``tools/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` ``.py`` path named in :data:`DOCS`
exists, then that every dotted ``repro.…`` name there resolves.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
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


def check_dotted_names(root: Path = ROOT) -> int:
    sys.path.insert(0, str(SRC))
    dangling = [
        f"{doc}: {name}"
        for doc in DOCS
        for name in sorted(set(_DOTTED.findall((root / doc).read_text())))
        if not resolves(name)
    ]
    if dangling:
        print("FAIL: docs name repro.… names that do not resolve:\n  "
              + "\n  ".join(dangling))
        return 1
    print(f"ok: every repro.… name in {len(DOCS)} docs resolves")
    return 0


def main() -> int:
    return (
        check_readme_snippets()
        or check_cli_list()
        or check_script_paths()
        or check_dotted_names()
    )


if __name__ == "__main__":
    sys.exit(main())
