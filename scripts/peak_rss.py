"""Peak memory and wall time of crossing-count commands, each in a child.

    PYTHONPATH=src python3 -S scripts/peak_rss.py [--limit-mib M] 'count --k 3 --n 3000' ...

Each quoted command runs as `python -m crossing_count ARGS`, with stdout
sent to /dev/null, and its peak resident set size is the ru_maxrss that
os.wait4 reports for it.  A child's ru_maxrss starts at the resident size
of the process it was spawned from, so run this script with -S: without
`site` and with no import beyond os, sys and time, the parent stays at a
few MiB, below the package's own import.  Prints one line per command
(peak MiB, wall seconds, exit code) and exits 1 if any command fails or
peaks above the limit.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    limit = None
    if argv[:1] == ["--limit-mib"]:
        limit, argv = float(argv[1]), argv[2:]
    failed = False
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    for command in argv:
        args = [sys.executable, "-m", "crossing_count", *command.split()]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, args, os.environ, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        peak = usage.ru_maxrss / 1024  # KiB on Linux
        over = limit is not None and peak > limit
        note = f"  above the {limit:g} MiB limit" if over else ""
        print(f"{peak:7.1f} MiB  {wall:6.2f} s  exit {code}  {command}{note}", flush=True)
        failed = failed or code != 0 or over
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
