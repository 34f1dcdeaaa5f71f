"""Line check: every line of src/trustgrid must run under the tier-1 tests.

Run from anywhere as `python tests/line_coverage.py` (Python 3.12 or later;
pytest does not collect this file). It records each line's first run through
sys.monitoring (PEP 669), which then stops reporting that line, runs the
tier-1 tests in this process, and takes a module's lines from the `co_lines()`
of its compiled code objects. It exits with pytest's status when a test
fails, else lists every `file:line` no test ran and exits 1 if there is one.
Lines that run only in forked worker processes do not count.
"""

import os
import sys
import types
from pathlib import Path

if sys.version_info < (3, 12):
    sys.exit("tests/line_coverage.py needs Python 3.12 or later (sys.monitoring)")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
monitoring = sys.monitoring
run = set()  # (co_filename, line) of every line run, in any file


def _line(code, line):
    run.add((code.co_filename, line))
    return monitoring.DISABLE


def _lines(code):
    """Every line of `code` and of the code objects nested in it."""
    for _, _, line in code.co_lines():
        if line:  # None, or 0 for the RESUME that starts a module under 3.12
            yield line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _lines(const)


def main() -> int:
    # before pytest or the tests import trustgrid, so its module lines count
    monitoring.use_tool_id(monitoring.COVERAGE_ID, "trustgrid line check")
    monitoring.register_callback(monitoring.COVERAGE_ID,
                                 monitoring.events.LINE, _line)
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)
    sys.path.insert(0, str(SRC))
    import pytest

    status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT)])
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.NO_EVENTS)
    if status:
        print(f"line check: the tests failed (pytest exit {int(status)})",
              file=sys.stderr)
        return int(status)

    by_file = {}
    for filename, line in run:
        by_file.setdefault(os.path.realpath(filename), set()).add(line)
    unrun = []
    for path in sorted((SRC / "trustgrid").glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        hit = by_file.get(str(path), set())
        name = path.relative_to(ROOT).as_posix()
        unrun += [f"{name}:{line}" for line in sorted(set(_lines(code)) - hit)]
    for where in unrun:
        print(f"line check: not run: {where}", file=sys.stderr)
    print(f"line check: {len(unrun)} line(s) of src/trustgrid not run",
          file=sys.stderr)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
