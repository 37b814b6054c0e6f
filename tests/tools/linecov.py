"""Print every line of ``src/`` that no tier-1 test executes.

    python3 tests/tools/linecov.py [pytest arguments]

Runs tier-1 in this process (extra arguments go to pytest, ``-q`` and
the repository's ``tests`` by default) under a ``sys.settrace`` hook that
records each line run in a file under ``src/``, in every thread, then
prints ``path:line  source`` for each line that holds code no test ran.
A line holds code when the compiled module has an instruction on it other
than a ``RESUME`` or ``NOP`` marker.  Standard library only, apart from
pytest itself.  Processes the tests start (the CLI subprocesses) are
not traced, so what only they run is listed.  It takes about three times
as long as plain tier-1.
"""

import dis
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
MARKERS = frozenset({"RESUME", "NOP", "CACHE", "EXTENDED_ARG"})


def code_lines(code: CodeType) -> set:
    """The lines of ``code`` and the code nested in it that hold an
    instruction other than a marker."""
    lines = {ins.positions.lineno for ins in dis.get_instructions(code)
             if ins.opname not in MARKERS and ins.positions.lineno is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def trace_tests(args: list) -> tuple:
    """Run pytest on ``args`` under the line hook: its exit status and the
    set of (file name, line) pairs run in ``src/``."""
    import pytest

    prefix, seen, wanted = str(SRC) + os.sep, set(), {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        inside = wanted.get(name)
        if inside is None:
            inside = wanted[name] = os.path.realpath(name).startswith(prefix)
        if inside:
            seen.add((name, frame.f_lineno))
            return local
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {(os.path.realpath(name), line) for name, line in seen}


def main(argv: list) -> int:
    status, seen = trace_tests(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        code = compile(text, str(path), "exec")
        lines = code_lines(code) - {line for name, line in seen if name == str(path)}
        source = text.splitlines()
        for line in sorted(lines):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(f"{missed} lines of src/ not run; pytest exit status {status}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
