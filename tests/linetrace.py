"""Check that the statements of `chordcycles` no test runs are the listed ones.

From the repository root:

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

Runs pytest in this process under `sys.settrace`, tracing only frames whose
code lives in src/chordcycles, and finds each executable line (as the code
objects' `co_lines` name them) that never ran.  A line counts for the
innermost statement holding it, as `ast` spans statements, so a statement's
continuation lines fold into it.  Each unreached statement is printed as
`file:line: text` of its first line, with a count per module.  The result
is compared with tests/unreached.txt, which names a statement by its file
and the stripped text of its first line: the script lists and fails on each
unreached statement that is not on the list, and each listed one that ran.
Code that tests reach only in a subprocess counts as unreached.  Hypothesis
runs derandomized, so two traces of one tree agree, and without deadlines,
since tracing slows every example down.
"""

import ast
import sys
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chordcycles"
LISTED = ROOT / "tests" / "unreached.txt"


def executable_lines(path: Path) -> set:
    """The line numbers of `path` that some instruction of its code maps to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statement_starts(path: Path) -> dict:
    """{line: first line of the innermost statement spanning it}."""
    start = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                start[line] = max(start.get(line, 0), node.lineno)
    return start


def listed_statements(path: Path = LISTED) -> dict:
    """{(file name, first-line text): the lemma it guards} from the list.

    Each entry is one line, `<file>: <first line of the statement> | <lemma>`;
    blank lines and lines starting with '#' are skipped.
    """
    entries = {}
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            name, _, rest = raw.partition(": ")
            text, _, lemma = rest.rpartition(" | ")
            entries[name, text.strip()] = lemma.strip()
    return entries


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
    unreached = {}  # (file name, first-line text) -> "file:line: text"
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        start = statement_starts(path)
        missed = executable_lines(path) - hits.get(path, set())
        for first in sorted({start.get(line, line) for line in missed}):
            key = path.name, text[first - 1].strip()
            unreached[key] = f"{path.relative_to(ROOT)}:{first}: {key[1]}"
            print(unreached[key])
            counts[path.stem] += 1
    for module, count in sorted(counts.items()):
        print(f"{module}: {count} unreached")
    print(f"{sum(counts.values())} unreached statements; pytest exit status {int(status)}")

    listed = listed_statements()
    unlisted = [unreached[key] for key in unreached if key not in listed]
    reached = [f"{name}: {text}" for name, text in listed if (name, text) not in unreached]
    for line in unlisted:
        print(f"unreached, not in {LISTED.name}: {line}")
    for line in reached:
        print(f"in {LISTED.name}, not unreached: {line}")
    return int(status) or int(bool(unlisted or reached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
