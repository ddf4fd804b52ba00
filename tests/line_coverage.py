"""Line coverage of the eit3 package by the tier-1 suite.

    python tests/line_coverage.py [pytest arguments]

Runs pytest on ``tests/`` (or on the given arguments) with a line tracer
(``sys.settrace``) on the code of ``src/eit3``, so it needs nothing beyond
the test extra, and lists each line of ``src/eit3`` that never ran.  A
line counts when compiling its file gives it the start of a bytecode line.
The one line exempt is ``raise SystemExit(main())`` under ``cli.py``'s
``__main__`` guard, which runs only when the module is the program.  Exits
with pytest's code when the tests fail, else 1 if a line never ran, else 0.

The stdlib ``trace`` module is not used: its ignore list is cached by a
module's base name, so once one ignored package's ``__init__.py`` has run,
every ``__init__.py`` is ignored, and so would be an eit3 module named
like an ignored one.
"""

import dis
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "eit3"
EXEMPT = {"raise SystemExit(main())"}


def line_starts(path: Path) -> set[int]:
    """The lines of ``path`` at which a bytecode line starts, over every
    code object of the compiled file."""
    codes, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    if "eit3" in sys.modules:  # its import-time lines would go uncounted
        raise SystemExit("eit3 was imported before tracing started")
    prefix = f"{SOURCE}{os.sep}"
    ran = set()

    def count(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return count

    def enter(frame, event, arg):  # a frame of src/eit3 counts its lines
        return count if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(enter)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if code != 0:
        return code
    missed = 0
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(line_starts(path)):
            if (str(path), line) in ran or text[line - 1].strip() in EXEMPT:
                continue
            print(f"{path.relative_to(ROOT)}:{line}: never ran: "
                  f"{text[line - 1].strip()}")
            missed += 1
    print(f"{missed} line(s) of {SOURCE.relative_to(ROOT)} never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
