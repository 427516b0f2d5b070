#!/usr/bin/env python3
"""Regenerate the CLI golden files under tests/golden/.

Each golden records argv, the exit code, and the exact stdout of one CLI
invocation; tests/test_cli.py replays them byte-for-byte.  This script
reruns the argv each file records and rewrites the rest, so a new golden
starts as a file that holds only its argv, e.g. {"argv": ["zoo", "list"]}.
Run it after any deliberate change to CLI output, then review the diff.

    python scripts/regen_goldens.py
"""

import contextlib
import io
import json
import os
import pathlib

from assocf import cli


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    os.chdir(root)
    for path in sorted(pathlib.Path("tests/golden").glob("*.json")):
        argv = json.loads(path.read_text())["argv"]
        code, stdout = capture(argv)
        doc = {"argv": argv, "exit_code": code, "stdout": stdout}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        first = stdout.splitlines()[0] if stdout else "<empty>"
        print(f"{path.stem}: exit {code}: {first}")


if __name__ == "__main__":
    main()
