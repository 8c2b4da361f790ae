"""Run the `tier1` job's steps of the CI workflow in a local tree.

Standard library only:

    python3 tools/ci_steps.py [--root DIR]

DIR defaults to the repository that holds this script.  The script
reads ``DIR/.github/workflows/tests.yml`` with a line parser (no YAML
library): the ``steps:`` list of the ``tier1`` job, and each step's
``name``, ``shell`` and ``run`` block.  It runs each block from DIR in
the shell that a Linux runner uses: ``bash --noprofile --norc -eo
pipefail`` for a step that sets ``shell: bash``, and ``bash -e`` for a
step that sets no shell, so a pipe there fails only by its last
command.  Each runs with ``DIR/src`` first on PYTHONPATH,
``PYTHONDONTWRITEBYTECODE=1``, and a ``logser`` shim first on PATH that
runs ``python -m logser.cli`` with this interpreter, so the tree's own
sources run and no console script is installed.  Steps with no ``run``
block, the Install step, the gmpy2 step and every ``pip install`` line
are skipped.  One line is printed per step, with its exit code and
time, and the exit code is 1 when any step fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def tier1_steps(workflow: str) -> list[tuple[str, str | None, str]]:
    """(name, shell, script) of each step of the tier1 job that has a run block."""
    lines = workflow.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "tier1:")
    job = _indent(lines[start])
    steps_at = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "steps:")
    steps, step = [], None
    i = steps_at + 1
    while i < len(lines):
        line = lines[i]
        if line.strip() and _indent(line) <= job:
            break  # the next job, or the end of the jobs
        text = line.strip()
        if text.startswith("- "):
            step = {}
            steps.append(step)
            text = text[2:]
        key, _, value = text.partition(":")
        i += 1
        if step is None or key not in ("name", "shell", "run", "if"):
            continue
        value = value.strip()
        if key == "run" and value in ("|", ">"):
            # a block scalar: every following line indented past the key, dedented
            key_indent = _indent(line) + (2 if line.strip().startswith("- ") else 0)
            block = []
            while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > key_indent):
                block.append(lines[i])
                i += 1
            margin = min(_indent(b) for b in block if b.strip())
            value = "\n".join(b[margin:] for b in block).rstrip() + "\n"
        step[key] = value
    return [(s.get("name", "?"), s.get("shell"), s["run"]) for s in steps
            if "run" in s and s.get("name") != "Install" and "gmpy2" not in s.get("if", "")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    root = args.root.resolve()
    steps = tier1_steps((root / ".github" / "workflows" / "tests.yml").read_text())
    ran = failed = 0
    with tempfile.TemporaryDirectory() as shims:
        shim = Path(shims) / "logser"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m logser.cli "$@"\n')
        shim.chmod(0o755)
        python_path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PATH": shims + os.pathsep + os.environ["PATH"],
               "PYTHONPATH": python_path, "PYTHONDONTWRITEBYTECODE": "1"}
        for name, shell, script in steps:
            script = "".join(line for line in script.splitlines(keepends=True)
                             if not line.lstrip().startswith("pip install"))
            start = time.perf_counter()
            flags = ["--noprofile", "--norc", "-eo", "pipefail"] if shell == "bash" else ["-e"]
            code = subprocess.run(["bash", *flags, "-c", script], cwd=root, env=env).returncode
            print(f"exit {code}  {time.perf_counter() - start:6.1f} s  {name}", flush=True)
            ran, failed = ran + 1, failed + (code != 0)
    print(f"{ran} steps run, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
