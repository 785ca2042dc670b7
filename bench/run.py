"""Benchmark of corrbox: one workload, in this one single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; corrbox is imported from src/.  The workload's
corrbox commands run in-process through corrbox.cli.main with their output
captured, in whole rounds until S seconds have passed and at least 100
commands have run.  Every output is then checked by bench/check.py, which
does not use corrbox's computations.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics.  Times are scaled to a reference
machine speed, because this machine's speed drifts by up to 1.8x over
minutes: a fixed pure-Python loop is timed before the first command and
after every 200 ms of commands, and each command time t is reported as
t * CAL_REF_MS / (mean loop time just before and after its stretch).  Cold
starts are scaled the same way by the bare interpreter starts around them.
The unscaled figures go to stderr.  --trace 1 runs a fixed number of rounds
twice, untraced and then traced, and reports the per-layer metrics and the
tracing overhead; the spans go to bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from workloads import WORKLOADS, Command, write_box_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_COMMANDS = 100
# Cold starts per run for setup_s; one start spreads by about a quarter.
SETUP_STARTS = 9
# The calibration loop's time on an idle machine of the reference type
# (5.3 to 5.5 ms on the 2-vCPU Xeon of README.md).
CAL_REF_MS = 5.5
# Unscaled command time between two calibration points.
CAL_STRETCH_MS = 200.0
# A bare interpreter start on that machine, the yardstick for setup_s.
BARE_START_REF_S = 0.05
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CORRUPT_VAR = "CORRBOX_FUZZ_CORRUPT"


@dataclass
class Record:
    command: Command
    code: int | str  # exit code, or "exception"
    out: str | None  # None for a repeat whose bytes matched the first run
    err: str
    ms: float
    same_as_first: bool = True
    scale: float = 1.0  # CAL_REF_MS over the calibration around this command


def run_command(command: Command) -> tuple[int | str, str, str, float]:
    from corrbox.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code: int | str = main(list(command.argv))
        except Exception:  # a crash is one failed command, not a failed run
            code = "exception"
            traceback.print_exc()
        ms = (time.perf_counter_ns() - start) / 1e6
    return code, out.getvalue(), err.getvalue(), ms


def run_commands(commands: list[Command], first: dict[tuple[str, ...], str]) -> list[Record]:
    """Run commands in order; a repeated command keeps only whether its
    bytes matched its first run, so memory stays flat."""
    records = []
    for command in commands:
        code, out, err, ms = run_command(command)
        known = first.get(command.argv)
        if known is None:
            first[command.argv] = out
            records.append(Record(command, code, out, err, ms))
        else:
            records.append(Record(command, code, None, err, ms, out == known))
    return records


def calibration_ms() -> float:
    """Wall time of a fixed exact-arithmetic loop that shares no code with
    corrbox: the yardstick for the machine's current speed."""
    start = time.perf_counter_ns()
    half = Fraction(1, 2)
    count = 0
    for k in range(1000):
        x = Fraction(k % 97 + 1, k % 89 + 2) * Fraction(k % 83 + 3, k % 79 + 5)
        count += x + Fraction(k, 65537) > half
    return (time.perf_counter_ns() - start) / 1e6


def calibration_point() -> float:
    return (calibration_ms() + calibration_ms()) / 2


@dataclass
class Round:
    records: list[Record]

    def ms(self, scaled: bool = True) -> float:
        return sum(r.ms * (r.scale if scaled else 1.0) for r in self.records)


def run_rounds(workload, seed: int, workdir: str, first: dict,
               until: Callable[[float, int, int], bool]) -> list[Round]:
    """Whole rounds until until(elapsed s, rounds, commands), with a
    calibration point before the first command and after every stretch of
    CAL_STRETCH_MS of commands (and after the last)."""
    rounds: list[Round] = []
    before = calibration_point()
    stretch: list[Record] = []
    start = time.perf_counter()
    commands = 0

    def close_stretch() -> None:
        nonlocal before
        after = calibration_point()
        for rec in stretch:
            rec.scale = 2 * CAL_REF_MS / (before + after)
        before = after
        stretch.clear()

    while not until(time.perf_counter() - start, len(rounds), commands):
        records = []
        for command in workload.round(seed, len(rounds), workdir):
            records += run_commands([command], first)
            stretch.append(records[-1])
            if sum(rec.ms for rec in stretch) >= CAL_STRETCH_MS:
                close_stretch()
        rounds.append(Round(records))
        commands += len(records)
    if stretch:
        close_stretch()
    return rounds


def measure_setup() -> tuple[float, float]:
    """Median over cold starts that import corrbox and warm it, each scaled
    by the bare interpreter starts around it; and the unscaled median.

    The calibration loop does not track process start-up (its ratio to a
    cold start spreads by a third), a bare `python3 -c pass` does."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    warm_argv = [sys.executable, str(BENCH / "warm.py")]
    bare_argv = [sys.executable, "-c", "pass"]

    def start_s(argv: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        return time.perf_counter() - start

    start_s(warm_argv)  # writes bytecode caches; untimed
    raw, scaled = [], []
    before = start_s(bare_argv)
    for _ in range(SETUP_STARTS):
        seconds = start_s(warm_argv)
        after = start_s(bare_argv)
        raw.append(seconds)
        scaled.append(seconds * 2 * BARE_START_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _boxes(record: Record, first: dict[tuple[str, ...], str]) -> int:
    if record.command.argv[0] != "fuzz":
        return record.command.boxes
    return json.loads(first[record.command.argv])["checked"]


def check_records(
    records: list[Record], first: dict[tuple[str, ...], str], seed: int
) -> list[str]:
    """Problems with the outputs of the commands that did not fail."""
    import check
    from corrbox.generators import FamilySpec, sample

    problems = []
    ok = [r for r in records if r.code == 0]
    for r in ok:
        argv = r.command.argv
        if not r.same_as_first:
            problems.append(f"{' '.join(argv)}: a repeat printed other bytes")
        if r.out is None:
            continue
        found = (check.check_findings(argv, r.out) if argv[0] == "fuzz"
                 else check.check_command(argv, r.out))
        problems += [f"{' '.join(argv)}: {p}" for p in found]
    fuzz = [r for r in ok if r.command.argv[0] == "fuzz"]
    rng = random.Random(seed)
    by_family: dict[str, list[Record]] = {}
    for r in fuzz:
        by_family.setdefault(r.command.argv[r.command.argv.index("--family") + 1], []).append(r)
    for family, group in sorted(by_family.items()):
        # One seeded command per family: every box recomputed, every tally
        # compared, and the command run again for identical bytes.
        r = rng.choice(group)
        argv = r.command.argv
        seed_arg = int(argv[argv.index("--seed") + 1])
        count = int(argv[argv.index("--count") + 1])
        boxes = [box.p for box in sample(FamilySpec(family, seed_arg), count)]
        problems += [f"{' '.join(argv)}: {p}" for p in
                     check.check_findings_boxes(argv, r.out, boxes)]
        if run_command(r.command)[1] != r.out:
            problems.append(f"{' '.join(argv)}: a repeat printed other bytes")
    return problems


def _environment_problems() -> list[str]:
    if CORRUPT_VAR in os.environ:
        return [f"{CORRUPT_VAR} is set, so fuzz plants a violating box"]
    return []


def timed_run(workload, seed: int, seconds: float, workdir: str) -> dict:
    from warm import warm

    setup_s, setup_raw = measure_setup()
    warm()
    first: dict[tuple[str, ...], str] = {}
    rounds = run_rounds(workload, seed, workdir, first,
                        lambda s, r, n: s >= seconds and n >= MIN_COMMANDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [rec for rnd in rounds for rec in rnd.records]
    problems = _environment_problems() + check_records(records, first, seed)

    boxes = [sum(_boxes(rec, first) for rec in rnd.records if rec.code == 0)
             for rnd in rounds]

    def summary(scaled: bool) -> dict[str, float]:
        ms = [rec.ms * (rec.scale if scaled else 1.0) for rec in records]
        return {
            "boxes_per_s": statistics.median(
                b / (rnd.ms(scaled) / 1000) for b, rnd in zip(boxes, rounds)),
            "cmd_ms.p50": statistics.median(ms),
            "cmd_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        }

    scaled = summary(scaled=True)
    raw = dict(summary(scaled=False), setup_s=setup_raw)
    metrics = {
        "setup_s": (setup_s, "s"),
        "boxes_per_s": (scaled["boxes_per_s"], "1/s"),
        "cmd_ms.p50": (scaled["cmd_ms.p50"], "ms"),
        "cmd_ms.p90": (scaled["cmd_ms.p90"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    scales = [rec.scale for rec in records]
    print(f"{workload.name}: {len(rounds)} rounds, {len(records)} commands, "
          f"{sum(rnd.ms(False) for rnd in rounds) / 1000:.2f} s in commands; speed "
          f"scale median {statistics.median(scales):.3f} (min {min(scales):.3f}, max "
          f"{max(scales):.3f}); unscaled {json.dumps(raw)}", file=sys.stderr)
    return _result(records, problems, metrics)


def traced_run(workload, seed: int, workdir: str, trace_path: Path) -> dict:
    from spans import Tracer
    from warm import warm

    warm()
    first: dict[tuple[str, ...], str] = {}
    until = lambda s, r, n: r == workload.trace_rounds  # noqa: E731
    untraced = run_rounds(workload, seed, workdir, first, until)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workload, seed, workdir, first, until)
    finally:
        tracer.uninstall()
    tracer.write(str(trace_path))
    records = [rec for rnd in untraced for rec in rnd.records]
    problems = _environment_problems() + check_records(records, first, seed)
    problems += [f"{' '.join(t.command.argv)}: traced run printed other bytes"
                 for rnd in traced for t in rnd.records
                 if not t.same_as_first or t.code != 0]
    scale = statistics.median(rec.scale for rnd in traced for rec in rnd.records)
    metrics = {name: (value * scale if unit == "ms" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    untraced_s = sum(rnd.ms() for rnd in untraced) / 1000
    traced_s = sum(rnd.ms() for rnd in traced) / 1000
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    if tracer.absent:
        print(f"absent spans: {', '.join(sorted(tracer.absent))}", file=sys.stderr)
    print(f"{workload.name}: {len(records)} commands, untraced {untraced_s:.2f} s, "
          f"traced {traced_s:.2f} s (scaled), spans in {trace_path}", file=sys.stderr)
    return _result(records, problems, metrics)


def _result(records: list[Record], problems: list[str], metrics: dict) -> dict:
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check: ... {len(problems) - 20} more", file=sys.stderr)
    for rec in records:
        if rec.code != 0:
            print(f"failed ({rec.code}): {' '.join(rec.command.argv)}: "
                  f"{rec.err.strip()[-300:]}", file=sys.stderr)
            break
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for rec in records if rec.code != 0),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corrbox" / "__init__.py").is_file():
        print(f"error: no corrbox sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    write_box_files(args.seed, str(workdir))
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        result = traced_run(workload, args.seed, str(workdir), trace_path)
    else:
        result = timed_run(workload, args.seed, args.seconds, str(workdir))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
