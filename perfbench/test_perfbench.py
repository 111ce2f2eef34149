"""Tests of the benchmark's own logic: seeding, span arithmetic, the gate.

    python3 -m pytest perfbench
"""

import pytest

import spans
import workloads
from spans import Span

GOLDEN = workloads.load_golden()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_commands(workload):
    def argvs(seed):
        return [c.argv for c in workloads.build_commands(workload, seed, GOLDEN, "cache.csv")]

    assert argvs(11) == argvs(11)
    assert len({tuple(argvs(seed)) for seed in range(20)}) > 1


def test_k3_sizes_stay_in_their_ranges():
    for seed in range(50):
        count, ell, *_ = workloads.build_commands("k3_counts", seed, GOLDEN, "cache.csv")
        n = int(count.argv[-1])
        assert 128 < n < 256 and n & (n - 1)
        assert ell.argv[-1] == str(n - workloads.K3_ELL_GAP)


def test_self_times_subtract_covered_child_time():
    tree = [
        Span(0, "root", 0, 100, -1),
        Span(0, "a", 10, 40, 0),
        Span(0, "a.inner", 20, 30, 1),
        Span(0, "b", 50, 90, 0),
        Span(0, "c", 80, 105, 0),  # overlaps b and runs past its parent
    ]
    # root: 100 minus the union [10, 40] + [50, 100]
    assert spans.self_times(tree) == [20, 20, 10, 40, 25]


def test_recorder_nests_spans_and_counts_calls(tmp_path):
    recorder = spans.Recorder()
    inner = recorder.span("inner", lambda x: x + 1, distinct=True)
    outer = recorder.span("outer", lambda x: inner(x) + inner(x) + inner(2), tally=abs)
    counted = recorder.count("counted", str)
    assert outer(1) == 7
    counted(3)
    recorder.dump(str(tmp_path / "s"), cmd=4)
    meta, recorded = spans.load(str(tmp_path / "s"))
    assert [(s.cmd, s.name, s.parent) for s in recorded] == [
        (4, "outer", -1), (4, "inner", 0), (4, "inner", 0), (4, "inner", 0)
    ]
    assert all(s.start <= s.end for s in recorded)
    assert sum(spans.self_times(recorded)) == recorded[0].end - recorded[0].start
    assert meta["calls"] == {"counted": 1}
    assert meta["distinct"] == {"inner": 2}
    assert meta["totals"] == {"outer": 7}


def _build(workload, golden):
    return workloads.build_commands(workload, 5, golden, "cache.csv")


@pytest.mark.parametrize(
    ("workload", "index", "lookup"),
    [
        ("k3_counts", 0, lambda golden: golden["s3"]),
        ("k3_counts", 1, lambda golden: golden["s3_ell"]),
        ("highk_identities", 2, lambda golden: golden["sk"][6]),
    ],
)
def test_gate_flags_a_corrupted_golden_count(workload, index, lookup):
    command = _build(workload, GOLDEN)[index]
    n = int(command.argv[command.argv.index("--n") + 1])
    out = f"{lookup(GOLDEN)[n]}\n"
    assert workloads.gate(command, 0, out) is None
    assert workloads.gate(command, 1, out) == "exit code 1"

    bad = workloads.load_golden()
    lookup(bad)[n] += 1
    assert workloads.gate(_build(workload, bad)[index], 0, out) is not None


def test_gate_flags_a_corrupted_oracle_histogram():
    command = _build("highk_identities", GOLDEN)[9]
    out = "".join(f"{ell} {count}\n" for ell, count in sorted(GOLDEN["oracle"][3].items()))
    assert workloads.gate(command, 0, out) is None

    bad = workloads.load_golden()
    bad["oracle"][3][4] += 1
    assert workloads.gate(_build("highk_identities", bad)[9], 0, out) is not None


def test_growth_gate_accepts_the_exact_radius_and_rejects_a_far_one():
    command = _build("highk_identities", GOLDEN)[3]
    assert command.argv[:3] == ("growth", "--k", "4")

    def render(r):
        rho = workloads.smallest_root(r)
        singular = _quartic_roots(r) + _quartic_roots(-r)
        return (
            f"k = 4\nr_k = {r:.10g} (exact)\nrho_k = {rho:.10f}\n"
            f"growth rate 1/rho_k = {1 / rho:.10f}\nresidual |theta(rho)-r_k| = 0.000e+00\n"
            "induced singularities:\n"
            + "".join(f"  {z.real:+.6f} {z.imag:+.6f}i\n" for z in singular)
        )

    assert workloads.gate(command, 0, render(1 / 6)) is None
    assert workloads.gate(command, 0, render(1.05 / 6)) is not None


def _quartic_roots(r):
    """Roots of (z - z^3) - r (1 - z + z^2 + z^3 - z^4), by Durand-Kerner."""
    coeffs = [1, -(1 + r) / r, -1, (1 + r) / r, -1]  # divided by the leading r

    def poly(z):
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc

    roots = [complex(0.4, 0.9) ** i for i in range(4)]
    for _ in range(200):
        for i, z in enumerate(roots):
            denom = 1
            for j, w in enumerate(roots):
                if j != i:
                    denom *= z - w
            roots[i] = z - poly(z) / denom
    return roots
