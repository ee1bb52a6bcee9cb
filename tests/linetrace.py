"""List the lines of `chordcycles` that no test runs.

From the repository root:

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Runs pytest in this process under `sys.settrace`, tracing only frames whose
code lives in src/chordcycles, then prints each executable line (as the
code objects' `co_lines` name them) that never ran, as `file:line: text`,
and a count per module.  Code that tests reach only in a subprocess counts
as unreached.  Hypothesis runs derandomized, so two traces of one tree
agree, and without deadlines, since tracing slows every example down.
"""

import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chordcycles"


def executable_lines(path: Path) -> set:
    """The line numbers of `path` that some instruction of its code maps to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list) -> tuple:
    """Run pytest on `args` under the trace: (exit status, {path: lines run})."""
    ran = {}  # co_filename -> lines run, or None for code outside the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if Path(name).resolve().parent == PACKAGE else None
        return None if ran[name] is None else local

    settings.register_profile("linetrace", deadline=None, derandomize=True)
    settings.load_profile("linetrace")
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    hits = {}
    for name, lines in ran.items():
        if lines is not None:
            hits.setdefault(Path(name).resolve(), set()).update(lines)
    return status, hits


def main(args: list) -> int:
    status, hits = traced_run(args)
    counts = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            counts[path.stem] += 1
    for module, count in sorted(counts.items()):
        print(f"{module}: {count} unreached")
    print(f"{sum(counts.values())} unreached lines; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
