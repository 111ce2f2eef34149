"""Each CLI command loads only the layers it runs.

Every check runs in a fresh interpreter and compares its sys.modules
with that of a bare interpreter in the same environment, since `site`
may already load modules such as random or typing.  Nothing here is
timed.
"""

import subprocess
import sys

import pytest

import crossing_count
from helpers import package_env
from crossing_count import counting, oracle

MARKER = "--- modules ---"
REPORT = f"import sys; print({MARKER!r}); print('\\n'.join(sorted(sys.modules)))"
# stdlib modules that the parser alone must not load
HEAVY = {"dataclasses", "fractions", "csv", "json"}
# what `import fractions` loads: every count, check and constant is on ints
RATIONAL = {"fractions", "decimal", "numbers"}


def _modules(code: str) -> set[str]:
    env = package_env()
    env.pop("CROSSING_COUNT_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split(MARKER + "\n", 1)[1].splitlines())


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    return _modules("pass")


def _loaded_by(code: str, baseline: set[str]) -> set[str]:
    return _modules(code) - baseline


def _package(modules: set[str]) -> set[str]:
    """The crossing_count layers among modules, by short name."""
    prefix = "crossing_count."
    return {m[len(prefix):] for m in modules if m.startswith(prefix)}


def test_parser_loads_no_compute_layer(baseline):
    new = _loaded_by("import crossing_count.cli as cli; cli.build_parser()", baseline)
    assert _package(new) == {"cli"}
    assert not new & HEAVY


LAYERS = {
    "count --k 3 --n 30": {"counting", "structures"},
    "table --n-max 20": {"asymptotics", "counting", "structures"},
    "asym --n 30": {"asymptotics", "counting", "structures"},
    "growth --k 4": {"asymptotics"},
    "verify --which all --k 3 --order 8": {"powerseries", "counting", "structures"},
    "oracle --n 6 --k 3": {"oracle"},
    "roots 1 -5 -1 5 -1": {"asymptotics"},
}


@pytest.mark.parametrize("command", LAYERS)
def test_command_loads_only_its_layers(command, baseline):
    code = f"import crossing_count.cli as cli; assert cli.main({command.split()!r}) == 0"
    new = _loaded_by(code, baseline)
    assert _package(new) == {"cli"} | LAYERS[command]
    assert "dataclasses" not in new
    assert not new & RATIONAL


def test_json_and_csv_only_for_their_format(baseline):
    count = "import crossing_count.cli as cli; cli.main(['count', '--k', '3', '--n', '5'"
    assert not _loaded_by(count + "])", baseline) & {"csv", "json"}
    assert "json" in _loaded_by(count + ", '--format', 'json'])", baseline)
    assert "csv" in _loaded_by(count + ", '--format', 'csv'])", baseline)


def test_budget_error_is_one_class():
    assert oracle.BudgetExceededError is counting.BudgetExceededError
    assert counting.BudgetExceededError is crossing_count.BudgetExceededError
