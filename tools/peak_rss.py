#!/usr/bin/env python3
"""Run one colliderbias command and fail if its peak memory is over a bound.

    python3 tools/peak_rss.py LIMIT_MB OUT ARGS...

runs ``python -m colliderbias ARGS... --out OUT`` in a child process, with
the interpreter that runs this script, and prints one line:

    sample-1.json: peak RSS 44.3 MB

The peak is the child's ``ru_maxrss`` (KiB on Linux).  Exit status: 0 at or
under LIMIT_MB, 1 over it; a command that fails raises, which exits 1 too.
Standard library only; it is not part of tier-1.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit_mb, out, *args = argv
    subprocess.run([sys.executable, "-m", "colliderbias", *args, "--out", out], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{out}: peak RSS {peak_mb:.1f} MB")
    return int(peak_mb > float(limit_mb))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
