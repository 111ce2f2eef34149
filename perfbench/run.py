"""Benchmark for the crossing-count CLI: end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload k3_counts --seed 1 --seconds 60 --trace 0

Run from any directory of a source checkout; the package is taken from its
`src/`.  One caller runs the workload's commands one at a time, each in a
fresh interpreter (a closed loop).  With --trace 0 the list runs at least
twice, and again while the next pass still fits in --seconds, and the
end-to-end metrics are reported, calibrated to a fixed host speed with
calibrate.py; with --trace 1 the list runs once
untraced and once under traced_cli.py, and the per-layer metrics are
reported.  `--workload all` runs every workload in turn.  Every command
passes through the correctness gate in workloads.py.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
README.md gives the reasons for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import spans
import traced_cli
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / f".work-{os.getpid()}"  # one per run, so concurrent runs stay apart
CACHE = WORK / "counts.csv"
SUBCOMMANDS = ("count", "table", "asym", "growth", "verify", "oracle")
# interpreter start + import + parser, sampled before each command so the
# samples spread over the whole run
PROBE = "import crossing_count.cli as cli; cli.build_parser()"
# calibrate.py, also run before each command, takes this long at the host
# speed the end-to-end times are reported at (README.md, "Steadiness")
CALIBRATE = HERE / "calibrate.py"
CALIBRATE_NOMINAL_S = 0.1
# even a short --seconds times every command twice
MIN_PASSES = 2
# a workload's children are killed at this point, so it ends within 180 s
DEADLINE_S = 170


@dataclass
class Outcome:
    """One finished child process."""

    wall: float  # seconds from launch to reaped
    rss_mib: float  # this child's own peak RSS
    code: int
    out: bytes
    err: str
    launched: int  # perf_counter_ns at launch
    reaped: int  # perf_counter_ns once reaped


class Runner:
    """Launches children one at a time under an isolated environment."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "CROSSING_COUNT_CACHE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def launch(self, args: list[str]) -> Outcome:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no time left for {args}")
        with open(WORK / "stderr.txt", "w+b") as err:
            launched = time.perf_counter_ns()
            child = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            watchdog = threading.Timer(remaining, child.kill)
            watchdog.start()
            try:
                out = child.stdout.read()
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                reaped = time.perf_counter_ns()
                watchdog.cancel()
                child.stdout.close()
            child.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-400:].decode(errors="replace")
        return Outcome(
            (reaped - launched) / 1e9, usage.ru_maxrss / 1024, code, out, tail, launched, reaped
        )

    def probe(self) -> float:
        outcome = self.launch(["-c", PROBE])
        if outcome.code != 0:
            raise RuntimeError(f"import probe failed: {outcome.err}")
        return outcome.wall

    def calibrate(self) -> float:
        outcome = self.launch([str(CALIBRATE)])
        if outcome.code != 0:
            raise RuntimeError(f"calibrate.py failed: {outcome.err}")
        return outcome.wall

    def run_pass(self, commands, probes=None, calibrations=None, traced=False):
        """Run the list once with a fresh cache.

        If probes and calibrations are lists, one set-up probe and one
        calibration run go before each command, and their times are added.
        """
        CACHE.unlink(missing_ok=True)
        outcomes = []
        for i, command in enumerate(commands):
            if probes is not None:
                probes.append(self.probe())
                calibrations.append(self.calibrate())
            if traced:
                args = [str(HERE / "traced_cli.py"), str(WORK / f"spans-{i}"), str(i)]
            else:
                args = ["-m", "crossing_count"]
            outcomes.append(self.launch(args + list(command.argv)))
        return outcomes


def gate_pass(commands, outcomes, reference=None) -> list[str]:
    """Gate problems of one pass; traced stdout must equal the untraced bytes."""
    problems = []
    for i, (command, outcome) in enumerate(zip(commands, outcomes)):
        problem = workloads.gate(command, outcome.code, outcome.out.decode())
        if problem is None and reference is not None and outcome.out != reference[i].out:
            problem = "traced stdout differs from untraced stdout"
        if problem is not None:
            problems.append(f"{' '.join(command.argv)}: {problem} {outcome.err.strip()[-200:]}")
    return problems


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without the highest and lowest tenth.

    The host's speed alternates between fast and slow spells, so the
    median of a run's samples jumps between the two speeds, while the
    mean follows the mix, which calibration then divides out; trimming
    keeps a rare stall from moving it.
    """
    cut = len(values) // 10
    return statistics.fmean(sorted(values)[cut : len(values) - cut])


def end_to_end(runner: Runner, commands, seconds: int):
    probes: list[float] = []
    calibrations: list[float] = []
    passes = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        outcomes = runner.run_pass(commands, probes, calibrations)
        passes.append((outcomes, time.monotonic() - begun))
        typical = statistics.median(took for _, took in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - started + typical > seconds:
            break
    per_command = [trimmed_mean([o.wall for o in runs]) for runs in zip(*(p for p, _ in passes))]
    setup = trimmed_mean(probes)
    # seconds at the host speed where calibrate.py takes CALIBRATE_NOMINAL_S
    scale = CALIBRATE_NOMINAL_S / trimmed_mean(calibrations)
    rss = [o.rss_mib for outcomes, _ in passes for o in outcomes]
    metrics = {
        "wall_s": (sum(per_command) * scale, "s"),
        "cmd_max_s": (max(per_command) * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "peak_rss_mib": (max(rss), "MiB"),
    }
    pass_walls = [sum(o.wall for o in outcomes) for outcomes, _ in passes]
    notes = [
        f"times calibrated by x{scale:.4f}: calibrate.py took {trimmed_mean(calibrations):.4f} s"
        f" (trimmed mean of {len(calibrations)}), against {CALIBRATE_NOMINAL_S} s nominal",
        f"wall_s, cmd_max_s: per-command trimmed means over {len(passes)} passes;"
        f" uncalibrated {sum(per_command):.3f} and {max(per_command):.3f} s;"
        f" pass walls median {statistics.median(pass_walls):.3f},"
        f" range {min(pass_walls):.3f} .. {max(pass_walls):.3f} s",
        f"setup_s: trimmed mean of {len(probes)} launches; uncalibrated {setup:.4f} s,"
        f" median {statistics.median(probes):.4f}, range {min(probes):.4f} .. {max(probes):.4f} s",
        f"peak_rss_mib: max over {len(rss)} commands",
    ]
    problems = [p for outcomes, _ in passes for p in gate_pass(commands, outcomes)]
    return metrics, notes, len(rss), problems


def per_layer(runner: Runner, commands):
    untraced = runner.run_pass(commands)
    traced = runner.run_pass(commands, traced=True)
    problems = gate_pass(commands, untraced) + gate_pass(commands, traced, untraced)

    self_ns, calls, counted, distinct, totals = (Counter() for _ in range(5))
    import_ns = exit_ns = 0
    for i, outcome in enumerate(traced):
        try:
            meta, recorded = spans.load(str(WORK / f"spans-{i}"))
        except FileNotFoundError:  # the child died early; the gate counted it
            continue
        for span, own in zip(recorded, spans.self_times(recorded)):
            self_ns[span.name] += own
            calls[span.name] += 1
        root = recorded[0]  # cli.main is entered first
        import_ns += root.start - outcome.launched
        exit_ns += outcome.reaped - root.end
        counted.update(meta["calls"])
        distinct.update(meta["distinct"])
        totals.update(meta["totals"])

    metrics = {}
    for name in traced_cli.SPANNED:
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in traced_cli.COUNTED:
        metrics[f"{name}.calls"] = (counted[name], "count")
    for name in traced_cli.DISTINCT_ARGS:
        ratio = calls[name] / distinct[name] if distinct[name] else 0
        metrics[f"{name}.repeat_ratio"] = (ratio, "ratio")
    enum = "oracle.enumerate_count"
    rate = totals[enum] / (self_ns[enum] / 1e9) if self_ns[enum] else 0
    metrics["oracle.diagrams_per_s"] = (rate, "1/s")
    for sub in SUBCOMMANDS:
        wall = sum(o.wall for c, o in zip(commands, untraced) if c.subcommand == sub)
        metrics[f"cli.{sub}.wall_s"] = (wall, "s")
    untraced_wall = sum(o.wall for o in untraced)
    traced_wall = sum(o.wall for o in traced)
    metrics["process.import_s"] = (import_ns / 1e9, "s")
    metrics["process.exit_s"] = (exit_ns / 1e9, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layers = sum(self_ns.values()) / 1e9
    notes = [
        f"untraced wall {untraced_wall:.3f} s; traced wall {traced_wall:.3f} s"
        f" = self times {layers:.3f} + import {import_ns / 1e9:.3f} + exit {exit_ns / 1e9:.3f}"
    ]
    return metrics, notes, len(untraced) + len(traced), problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cache = str(CACHE.relative_to(ROOT))
    commands = workloads.build_commands(name, seed, workloads.load_golden(), cache)
    replay = {"workload": name, "seed": seed, "argv": [list(c.argv) for c in commands]}
    print("commands " + json.dumps(replay))
    runner = Runner(time.monotonic() + DEADLINE_S)
    if trace:
        metrics, notes, attempted, problems = per_layer(runner, commands)
    else:
        metrics, notes, attempted, problems = end_to_end(runner, commands, seconds)
    print(f"{name} seed={seed} trace={int(trace)}: {len(problems)} of {attempted} commands failed"
          f" (error_rate {len(problems) / attempted:.4g})")
    for problem in problems:
        print(f"  FAILED {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crossing_count" / "cli.py").is_file():
        print(f"error: no crossing_count sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
        }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
