"""The process entry point: `python -m crossing_count` and the
`crossing-count` script both call run().

run() calls gc.freeze() once cli.main has returned or raised, so the
collections that interpreter finalization runs skip every object made
so far: compiled code, the parser and the modules `site` loaded.  That
takes about 10 ms off each command on a 2-vCPU VM.  Finalization itself
still runs: atexit handlers, the flush of stdout and stderr, the exit
code.  cli.main never freezes, since its in-process callers (the tests,
the benchmark's trace) go on making objects after it returns.
"""

import gc
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
