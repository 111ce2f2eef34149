"""The process entry point: `python -m crossing_count` and the
`crossing-count` script both call run().

run() calls gc.freeze() once cli.main has returned or raised, so the
collections that interpreter finalization runs skip every object made
so far: compiled code, the parser and the modules `site` loaded.  That
takes about 10 ms off each command on a 2-vCPU VM.  Finalization itself
still runs: atexit handlers, the flush of stdout and stderr, the exit
code.  cli.main never freezes, since its in-process callers (the tests,
the benchmark's trace) go on making objects after it returns.

A reader that closes the pipe early (`crossing-count table ... | head`)
is not a failed verification: run() flushes stdout itself on every exit
path, argparse's --help and usage errors included, and on BrokenPipeError
points stdout at os.devnull, so the flush at exit stays quiet, and exits
with EXIT_BROKEN_PIPE, 128 + SIGPIPE, with no traceback.
"""

import gc
import os
import sys

from .cli import EXIT_BROKEN_PIPE, main


def run() -> None:
    try:
        try:
            code = main()
        finally:
            # on every exit path, argparse's SystemExit for --help included
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
