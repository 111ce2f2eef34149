"""The process entry point, crossing_count.__main__.run.

run() freezes the heap once cli.main is done, so interpreter teardown
skips its collections; cli.main itself must never freeze, and the rest
of finalization (atexit handlers, exit codes) must still happen.  A
reader that closed the pipe gets exit 141 and no traceback.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import package_env
from crossing_count import __main__ as entry
from crossing_count import cli


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=package_env(), timeout=60
    )


def test_main_never_freezes(capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(["count", "--k", "3", "--n", "4"]) == 0
    assert cli.main(["count", "--k", "2", "--n", "5"]) == 2
    assert cli.main(["oracle", "--n", "30", "--k", "3", "--budget", "1000"]) == 3
    with pytest.raises(SystemExit):
        cli.main(["count", "--k", "three"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_atexit_handlers_run_after_the_frozen_exit():
    # a handler registered before the entry point still runs at exit, and
    # sees the heap frozen: the process ends by finalization, not os._exit
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('atexit frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['crossing_count', 'count', '--k', '3', '--n', '4']\n"
        "runpy.run_module('crossing_count', run_name='__main__')\n"
    )
    proc = _child("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "2\natexit frozen True\n")


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        ("count --k 3 --n 4", 0, "2\n"),
        ("count --k three --n 5", 2, ""),  # argparse's rejection
        ("count --k 2 --n 5", 2, ""),  # the library's ValueError
        ("oracle --n 30 --k 3 --budget 1000", 3, ""),
    ],
    ids=["ok", "argparse", "value-error", "budget"],
)
def test_module_entry_stdout_and_exit_code(argv, code, stdout):
    proc = _child("-m", "crossing_count", *argv.split())
    assert (proc.returncode, proc.stdout) == (code, stdout)


def test_console_script_is_the_module_entry():
    # tomllib is 3.11+, and requires-python is 3.10
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, attr = re.search(r'^crossing-count = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert sys.modules[module] is entry
    assert getattr(entry, attr) is entry.run


@pytest.mark.parametrize(
    "argv",
    ["table --n-max 100 --step 1", "--help", "table --help"],
    ids=["table", "help", "subcommand-help"],
)
def test_closed_pipe_exits_141_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # or flush fails whatever the timing.  --help leaves main by SystemExit
    # with its text still in stdout's buffer (argparse drops a failed
    # write, so an unbuffered stdout would hide the case)
    env = {k: v for k, v in package_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crossing_count", *argv.split()],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, "")


def test_golden_replay_reports_both_exit_codes_and_the_first_differing_line(tmp_path):
    # a copy of the replay script next to a golden file of two cases: one
    # that matches and one whose expected exit code and stdout are wrong
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "scripts").mkdir()
    (tmp_path / "tests").mkdir()
    script = tmp_path / "scripts" / "replay_golden.py"
    script.write_text((root / "scripts" / "replay_golden.py").read_text())
    cases = [
        {"argv": ["count", "--k", "3", "--n", "5"], "exit": 0, "stdout": "5\n"},
        {"argv": ["count", "--k", "3", "--n", "6"], "exit": 1, "stdout": "12\n"},
    ]
    (tmp_path / "tests" / "cli_golden.json").write_text(json.dumps({"cases": cases}))
    proc = _child(str(script))
    assert proc.returncode == 1
    assert proc.stdout == "1 of 2 golden cases match through python -m crossing_count\n"
    assert proc.stderr.splitlines() == [
        "differs: count --k 3 --n 6 (exit 1 expected, 0 got)",
        "  line 1 expected: '12'",
        "  line 1      got: '14'",
    ]
