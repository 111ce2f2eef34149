import argparse
import contextlib
import importlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import package_env
from crossing_count import asymptotics, cli, commands, counting, powerseries, structures
from crossing_count.powerseries import IdentityReport
from crossing_count.structures import s_k3


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--n", "5")
    assert code == 0
    assert out == "5\n"


def test_count_json_decimal_string(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--n", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": 3, "n": 10, "ell": None, "count": str(s_k3(3, 10))}


def test_count_with_ell(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--n", "7", "--ell", "3")
    assert code == 0
    assert out.strip() == "24"


def test_count_csv_header_and_lf(capsys):
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--n", "5", "--format", "csv")
    assert code == 0
    assert out == "k,n,ell,count\n3,5,,5\n"
    assert "\r" not in out


def test_json_round_trips(capsys):
    for argv in (
        ["count", "--k", "3", "--n", "8", "--format", "json"],
        ["table", "--n-max", "30", "--step", "10", "--format", "json"],
        ["growth", "--k", "3", "--format", "json"],
        ["verify", "--which", "phi", "--order", "10", "--format", "json"],
        ["oracle", "--n", "6", "--k", "3", "--format", "json"],
        ["roots", "1", "-5", "-1", "5", "-1", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rendered = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert rendered == out


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "count", "--k", "2", "--n", "5")[0] == 2
    assert run_cli(capsys, "count", "--k", "3", "--n", "-1")[0] == 2
    assert run_cli(capsys, "table", "--n-max", "5", "--step", "10")[0] == 2
    assert run_cli(capsys, "oracle", "--n", "4", "--k", "1")[0] == 2
    assert run_cli(capsys, "roots", "0", "1", "1", "1", "1")[0] == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--n", "5"])  # missing --k
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("table --n-max 5 --step 10", "need n_max >= step >= 1, got n_max=5, step=10"),
        ("table --n-max 10 --digits 0", "table needs --digits >= 1, got 0"),
        ("table --n-max 10 --digits 18", "table needs --digits <= 17, got 18"),
        ("verify --k 2", "verify needs --k >= 3, got 2"),
        ("verify --order 0", "verify needs --order >= 1, got 0"),
    ],
)
def test_handler_usage_errors_keep_their_messages(capsys, argv, message):
    # each handler raises ValueError, which main prints as one error line
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_growth_names_the_root_the_float_solver_lost(capsys, monkeypatch):
    # a root finder that loses the root at rho_k: every root moved by 1e-3
    roots = asymptotics._roots
    monkeypatch.setattr(asymptotics, "_roots", lambda *args: [z + 1e-3 for z in roots(*args)])
    message = "the root finder lost the root at rho_k = 5.000000250000038e-08"
    assert run_cli(capsys, "growth", "--k", "10000000") == (2, "", f"error: {message}\n")


def _declared(name: str) -> commands.Options:
    options = commands.Options()
    importlib.import_module(f"crossing_count.commands.{name}").add_arguments(options)
    return options


def _argparse_vars(options: commands.Options, argv: list[str]) -> dict | None:
    """What argparse parses argv into, or None where it exits (help or an error)."""
    parser = argparse.ArgumentParser(prog="crossing-count")
    for names, kw in options.calls:
        parser.add_argument(*names, **kw)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


# values of each type that read() and argparse take, then negative, empty,
# non-numeric and out-of-choice ones (no nan, which equals no other nan)
GOOD = {int: ("0", "3", "12"), float: ("1.5", "4.5", "inf"), None: ("x", "")}
BAD = ("-1", "-2.5", "-x", "", "x", "three", "1.5", "js")


def _argvs(options: commands.Options):
    """Argvs of declared options with good values, each required option
    mostly given, mixed with up to two odd pieces: -h, --help, --, a stray
    value, an option with a bad value or none, an abbreviation or an '='
    form.  Repeats come by chance."""
    declared = {names[0]: kw for names, kw in options.calls}

    def good(name: str):
        kw = declared[name]
        if "action" in kw:
            return st.just([name])
        values = kw.get("choices") or GOOD[kw.get("type")]
        return st.sampled_from(values).map(lambda value: [name, value])

    name = st.sampled_from(sorted(declared))
    odd = st.one_of(
        st.sampled_from((["-h"], ["--help"], ["--"], ["3"], ["-1"])),
        st.tuples(name, st.sampled_from(BAD)).map(list),
        name.map(lambda n: [n]),
        name.map(lambda n: [n[:-1]]),
        st.tuples(name, st.sampled_from(BAD + GOOD[int])).map(lambda nv: ["=".join(nv)]),
    )
    required = [good(n) for n, kw in declared.items() if kw.get("required")]
    return st.tuples(
        st.tuples(*(st.one_of(piece, piece, piece, st.just([])) for piece in required)),
        st.lists(name.flatmap(good), max_size=4),
        st.lists(odd, max_size=2),
        st.randoms(use_true_random=False),
    ).map(_shuffled)


def _shuffled(drawn) -> list[str]:
    required, optional, odd, rng = drawn
    pieces = [*required, *optional, *odd]
    rng.shuffle(pieces)
    return [token for piece in pieces for token in piece]


ARGVS = {name: _argvs(_declared(name)) for name in cli.COMMANDS}


@pytest.mark.parametrize("name", cli.COMMANDS)
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_read_is_argparse_or_declines(name, data):
    # read() either parses argv as argparse does or leaves it to argparse,
    # and it always leaves to argparse an argv that argparse rejects
    options = _declared(name)
    argv = data.draw(ARGVS[name])
    read = options.read(argv)
    assert read is None or vars(read) == _argparse_vars(options, argv)


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_no_typed_option_has_a_string_default(name):
    # argparse passes a string default through the option's type; read()
    # takes every default as declared
    for _, kw in _declared(name).calls:
        assert not ("type" in kw and isinstance(kw.get("default"), str))


def test_top_level_parse_never_runs_a_handler(monkeypatch, capsys):
    # argparse ends every parse of a non-command argv in help or an error;
    # were one to return, main still exits 2 instead of running a command
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "parse_args",
        lambda self, args=None, namespace=None: argparse.Namespace(command="count"),
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["--", "count", "--k", "3", "--n", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_budget_refusal_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--n", "30", "--k", "3", "--budget", "1000"
    )
    assert code == 3
    assert "budget" in err


def test_count_without_recurrence_refuses_with_exit_3():
    # k = 8 has no committed recurrence, and the walk frontier for n = 400
    # would keep far more shapes than the bound
    proc = subprocess.run(
        [sys.executable, "-m", "crossing_count", "count", "--k", "8", "--n", "400"],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("refused: ") and "shapes" in proc.stderr


def test_oversized_table_is_refused_before_any_row(capsys):
    rows = structures._table.max_n
    n_max = str(structures.MAX_LAMBDA_ROW + 10)
    code, out, err = run_cli(capsys, "table", "--n-max", n_max, "--step", "10")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ")
    assert structures._table.max_n == rows


def test_oversized_kprime_is_refused_before_the_count_at_n(capsys):
    rows = structures._table.max_n
    n = str(min(rows + 10, structures.MAX_LAMBDA_ROW))
    n_max = str(structures.MAX_LAMBDA_ROW + 10)
    code, out, err = run_cli(capsys, "asym", "--n", n, "--n-max", n_max)
    assert (code, out) == (3, "")
    assert err.startswith("refused: ")
    assert structures._table.max_n == rows


@pytest.mark.parametrize(
    "argv",
    [["count", "--k", "8", "--n", "400"], ["verify", "--which", "all", "--k", "8", "--order", "100"]],
)
def test_oversized_walk_request_is_refused_before_any_step(capsys, monkeypatch, argv):
    fk_tables = {k: table for k, table in counting._fk_tables.items() if k != 8}
    monkeypatch.setattr(counting, "_fk_tables", fk_tables)
    rows = structures._table.max_n
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and "shapes" in err
    assert 8 not in fk_tables and 8 not in counting._tk_tables
    assert structures._table.max_n == rows


def test_bessel_bound_refuses_verify_all_before_any_check(capsys, monkeypatch):
    fk_tables = {k: table for k, table in counting._fk_tables.items() if k != 13}
    monkeypatch.setattr(counting, "_fk_tables", fk_tables)
    code, out, err = run_cli(capsys, "verify", "--which", "all", "--k", "13", "--order", "60")
    assert (code, out) == (3, "")
    assert err.startswith("refused: Bessel")
    assert 13 not in fk_tables


def test_odd_walk_request_reads_no_term(capsys):
    # no perfect matching on 401 vertices: the answer needs no walk frontier
    assert run_cli(capsys, "count", "--k", "8", "--n", "401", "--ell", "0")[:2] == (0, "0\n")


def test_verify_all_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--which", "all", "--k", "3", "--order", "12")
    assert code == 0
    assert "MISMATCH" not in out


def test_verify_failure_exit_1(capsys, monkeypatch):
    broken = IdentityReport("laplace(k=3)", 10, False, 7, 1, 2)
    monkeypatch.setattr(
        powerseries, "verify_laplace_identity", lambda k, order: broken
    )
    code, out, _ = run_cli(capsys, "verify", "--which", "laplace")
    assert code == 1
    assert "MISMATCH" in out


def test_oracle_cli_matches_count_cli(capsys):
    _, oracle_out, _ = run_cli(capsys, "oracle", "--n", "10", "--k", "3", "--min-arc", "3")
    _, count_out, _ = run_cli(capsys, "count", "--k", "3", "--n", "10")
    assert oracle_out == count_out


def test_oracle_histogram_csv(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--n", "6", "--k", "3", "--by-isolated", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == s_k3(3, 6)


def test_oracle_shuffle_seed_stable(capsys):
    base = run_cli(capsys, "oracle", "--n", "8", "--k", "3", "--by-isolated")[1]
    for seed in ("0", "1", "12345"):
        shuffled = run_cli(
            capsys, "oracle", "--n", "8", "--k", "3", "--by-isolated",
            "--shuffle-seed", seed,
        )[1]
        assert shuffled == base


def test_table_known_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "20", "--step", "10")
    assert code == 0
    assert "2.017e-05" in out and "7.884e-05" in out


def test_table_base_one_row(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "5", "--step", "5", "--base", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    n, exact, asym = lines[1].split(",")
    assert n == "5"
    assert float(exact) == 5.0
    assert abs(float(asym) - 146.6808 / 120) < 1e-4


def test_growth_text_contains_constants(capsys):
    code, out, _ = run_cli(capsys, "growth", "--k", "3")
    assert code == 0
    assert "0.2198188" in out
    assert "4.5492013" in out
    assert out.count("i") >= 8  # eight singularities listed


def test_growth_k4(capsys):
    code, out, _ = run_cli(capsys, "growth", "--k", "4", "--n-max", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["rho"] - 0.14930) < 5e-4
    assert len(payload["singularities"]) == 8


def test_asym_command(capsys):
    code, out, _ = run_cli(capsys, "asym", "--n", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == str(s_k3(3, 100))
    assert payload["exact_factor"] == "1.29898e-08"
    assert payload["asymptotic_factor"] == "1.62356e-08"
    # the log-scaled prediction sits near the exact count's magnitude
    assert abs(float(payload["asymptotic_count_log10"]) - math.log10(s_k3(3, 100))) < 0.2


def test_cache_warm_equals_cold(tmp_path, capsys):
    cache = tmp_path / "counts.csv"
    argv = ["table", "--n-max", "40", "--step", "10", "--cache", str(cache)]
    cold = run_cli(capsys, *argv)
    assert cache.exists()
    warm = run_cli(capsys, *argv)
    assert warm == cold
    header = cache.read_text().splitlines()[0]
    assert header == "kind,k,n,ell,value"


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.csv"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
    code, out, _ = run_cli(capsys, "count", "--k", "3", "--n", "12")
    assert code == 0
    assert cache.exists()
    assert str(s_k3(3, 12)) in cache.read_text()


def test_corrupt_cache_recomputes_with_warning(tmp_path, capsys):
    cache = tmp_path / "bad.csv"
    cache.write_text("totally,not,a,cache\n1,2,3\n")
    code, out, err = run_cli(
        capsys, "count", "--k", "3", "--n", "9", "--cache", str(cache)
    )
    assert code == 0
    assert out.strip() == str(s_k3(3, 9))
    assert "corrupt" in err or "warning" in err
    # cache is rewritten cleanly and usable afterwards
    again = run_cli(capsys, "count", "--k", "3", "--n", "9", "--cache", str(cache))
    assert again[0] == 0 and again[1] == out
    assert cache.read_text().splitlines()[0] == "kind,k,n,ell,value"


@pytest.mark.parametrize("where", ["directory", "missing/x.csv"])
def test_unwritable_cache_warns_once(tmp_path, capsys, where):
    cache = tmp_path if where == "directory" else tmp_path / where
    code, out, err = run_cli(
        capsys, "table", "--n-max", "30", "--step", "10", "--cache", str(cache)
    )
    assert code == 0
    assert out == run_cli(capsys, "table", "--n-max", "30", "--step", "10")[1]
    assert err.count("not writing cache") == 1


def test_cached_values_reused_verbatim(tmp_path, capsys):
    cache = tmp_path / "counts.csv"
    run_cli(capsys, "count", "--k", "3", "--n", "15", "--cache", str(cache))
    store = cli.CountCache(str(cache))
    assert store.get(3, 15) == s_k3(3, 15)


def test_roots_csv(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "1", "3", "-1", "-3", "-1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 5

