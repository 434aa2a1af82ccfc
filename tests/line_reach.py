"""Line reach of the Tier-1 suite: every executable line of ``src/cansol`` runs in some test.

Run from anywhere, extra arguments go to pytest:

    python tests/line_reach.py [pytest args]

The script runs the Tier-1 suite in this process under the derandomized
hypothesis profile (``HYPOTHESIS_PROFILE=ci``), with a ``sys.settrace``
filter that records the lines run in ``src/cansol/``.  A module's
executable lines are the ``co_lines`` of its compiled code objects,
nested ones included.  The script prints every such line that no test
reached and exits 1 if there is any, or with pytest's code if the suite
fails.  (``python -m trace`` is no substitute: its ignore cache is keyed
by module base name, so it skips ``cansol/reports.py`` and
``cansol/__init__.py``.)
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cansol"
PREFIX = str(PACKAGE) + os.sep


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from ``path`` attribute instructions to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args) -> int:
    os.environ["HYPOTHESIS_PROFILE"] = "ci"
    os.chdir(ROOT)
    import pytest

    hits = set()

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PREFIX):
            return None
        # the call event stands for the def line, which has no line event
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"line reach: the suite failed (pytest exit code {code})")
        return int(code)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        reached = {line for name, line in hits if name == str(path)}
        gaps = sorted(executable_lines(path) - reached)
        missed += len(gaps)
        print(f"line reach: {path.relative_to(ROOT)}: {len(gaps)} unreached" + (f": {gaps}" if gaps else ""))
    if missed:
        print(f"line reach: {missed} executable lines of src/cansol run in no test")
        return 1
    print("line reach: every executable line of src/cansol runs in some test")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
