#!/usr/bin/env python
"""Gate on the correctness verdict of a ``perfbench/run.py`` output.

Usage::

    python3 perfbench/run.py --workload profile-2wh --seconds 1 > out.txt
    python3 scripts/perfbench_correct.py out.txt

``run.py`` exits 0 even when one of its output checks fails, so the
verdict is read from its last output line (one JSON object): this script
exits 0 only if that object's ``"correct"`` field is ``true``, and
otherwise exits non-zero with the field's value.
"""

import argparse
import json
import sys


def verdict(text):
    """The ``correct`` field of the last line of ``text`` (None if absent)."""
    lines = text.splitlines()
    if not lines:
        raise SystemExit("perfbench: empty output")
    return json.loads(lines[-1]).get("correct")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="a file holding run.py's stdout")
    args = parser.parse_args(argv)
    with open(args.output) as f:
        correct = verdict(f.read())
    if correct is not True:
        raise SystemExit("perfbench: correct=%r" % (correct,))


if __name__ == "__main__":
    sys.exit(main())
