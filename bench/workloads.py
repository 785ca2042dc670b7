"""The benchmark's workloads: seeded lists of corrbox command lines.

A workload is a function of the seed that gives the commands of round r.
A run repeats whole rounds, so every run attempts the same kinds of
commands in the same proportions.  `boxes` is how many boxes one command
gives their full exact report (see README.md for how each command counts).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Sizes of one fuzz command.  A general box costs one exact LP, so 20 boxes
# keep a command near 70 ms at the reference speed and give about 300
# commands in a 25 s run, enough for a steady p90.  On the mixture families
# the LP re-solves boxes 0..4 of every command (and every 100th), so 100
# boxes hold the LP near a tenth of the command while still giving more
# than 100 commands per run.
GENERAL_COUNT = 20
HULL_COUNT = 100

# Boxes whose cost `repro` solves exactly: the 16-row named-box table, the
# pr panel, two 11-point mixture grids, the noise box, the 11-point
# isotropic sweep and the Tsirelson box.
REPRO_BOXES = 16 + 1 + 22 + 1 + 11 + 1

CANONICAL_NAMES = tuple(f"d{i}_{k}" for k in (0, 1) for i in range(8)) + ("pr", "noise")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    boxes: int


@dataclass(frozen=True)
class Workload:
    name: str
    # round(seed, r, workdir) -> commands of round r
    round: Callable[[int, int, str], list[Command]]
    # rounds that one traced run covers, fixed so that its counts repeat
    trace_rounds: int


def _fuzz_seed(seed: int, index: int) -> int:
    # Disjoint seed ranges per run seed; index counts commands of the run.
    return seed * 1_000_000 + index


def _fuzz_general_round(seed: int, r: int, workdir: str) -> list[Command]:
    return [
        Command(("fuzz", "--family", "general", "--seed", str(_fuzz_seed(seed, 2 * r + k)),
                 "--count", str(GENERAL_COUNT)), GENERAL_COUNT)
        for k in range(2)
    ]


def _fuzz_hull_round(seed: int, r: int, workdir: str) -> list[Command]:
    return [
        Command(
            ("fuzz", "--family", family, "--seed", str(_fuzz_seed(seed, 2 * r + k)),
             "--count", str(HULL_COUNT)),
            HULL_COUNT,
        )
        for k, family in enumerate(("chsh16_mixture", "oneway_slice"))
    ]


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_box(path: str, cells: list[Fraction]) -> None:
    obj = {"format": "box-v1", "p": [[_text(x) for x in cells[4 * k: 4 * k + 4]]
                                      for k in range(4)]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def general_cells(rng: random.Random) -> list[Fraction]:
    """A box with independent random columns: it signals and is exact."""
    cells: list[Fraction] = []
    for _ in range(4):
        raw = [rng.randint(1, 997) for _ in range(4)]
        cells.extend(Fraction(x, sum(raw)) for x in raw)
    return cells


def no_signaling_cells(rng: random.Random) -> list[Fraction]:
    """P(A,B|a,b) = (1 + (-1)^A alpha_a + (-1)^B beta_b + (-1)^(A+B) E_ab) / 4.

    Alice's marginal depends on a alone and Bob's on b alone, so the box
    does not signal; draws with a negative cell are rejected."""
    while True:
        den = rng.randint(5, 97)
        alpha = [Fraction(rng.randint(-den, den), 2 * den) for _ in range(2)]
        beta = [Fraction(rng.randint(-den, den), 2 * den) for _ in range(2)]
        corr = [Fraction(rng.randint(-den, den), den) for _ in range(4)]
        cells = [
            (1 + (-1) ** out_a * alpha[a] + (-1) ** out_b * beta[b]
             + (-1) ** (out_a + out_b) * corr[2 * a + b]) / 4
            for a in (0, 1) for b in (0, 1) for out_a in (0, 1) for out_b in (0, 1)
        ]
        if min(cells) >= 0:
            return cells


def write_box_files(seed: int, workdir: str) -> None:
    """Set-up for cli-reports: three general and three no-signaling boxes."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    for k in range(3):
        _write_box(os.path.join(workdir, f"general-{k}.json"), general_cells(rng))
    for k in range(3):
        _write_box(os.path.join(workdir, f"nosig-{k}.json"), no_signaling_cells(rng))


def isotropic_grid(seed: int) -> list[Fraction]:
    """Three weights below 1/2 (outside the chsh16 hull), 1/2, and two above."""
    rng = random.Random(seed + 7919)
    den = rng.randint(11, 199)
    below = [Fraction(rng.randint(1, (den - 1) // 2), den) for _ in range(3)]
    above = [Fraction(rng.randint(den // 2 + 1, den - 1), den) for _ in range(2)]
    return below + [Fraction(1, 2)] + above


def _cli_reports_round(seed: int, r: int, workdir: str) -> list[Command]:
    grid = [_text(v) for v in isotropic_grid(seed)]
    low, high = grid[0], grid[-1]
    general = [os.path.join(workdir, f"general-{k}.json") for k in range(3)]
    nosig = [os.path.join(workdir, f"nosig-{k}.json") for k in range(3)]
    tsirelson = ("quantum", "--angles", "tsirelson")
    argvs: list[tuple[str, ...]] = [("analyze", name) for name in CANONICAL_NAMES]
    argvs += [("analyze", "isotropic", "--v", v) for v in grid]
    argvs += [("analyze", *tsirelson, "--dim", "2")]
    argvs += [("analyze", path) for path in general + nosig]
    argvs += [
        ("analyze", general[0], "--dim", "3"),
        ("analyze", "pr", "--text"),
        ("analyze", "isotropic", "--v", high, "--text"),
        ("analyze", nosig[0], "--text"),
        ("decompose", general[1]),
        ("decompose", "pr"),
        ("decompose", "noise"),
        ("decompose", "pr", "--basis", "chsh16"),
        ("decompose", "isotropic", "--v", high, "--basis", "chsh16"),
        ("decompose", "isotropic", "--v", low, "--basis", "chsh16"),
        ("decompose", *tsirelson, "--basis", "chsh16"),
        ("decompose", "noise", "--alt"),
        ("decompose", "d3_1", "--alt"),
        ("decompose", "isotropic", "--v", high, "--basis", "chsh16", "--alt"),
        ("sweep", "--steps", "10"),
        ("repro",),
    ]
    return [Command(argv, command_boxes(argv)) for argv in argvs]


def command_boxes(argv: tuple[str, ...]) -> int:
    if argv[0] == "sweep":
        return int(argv[argv.index("--steps") + 1]) + 1
    if argv[0] == "repro":
        return REPRO_BOXES
    return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz-general", _fuzz_general_round, trace_rounds=20),
        Workload("fuzz-hull", _fuzz_hull_round, trace_rounds=20),
        Workload("cli-reports", _cli_reports_round, trace_rounds=8),
    )
}
