"""Canonical boxes, parametric families, and seeded samplers.

The canonical basis is 16 named deterministic boxes: eight zero-bit ones
(d0_0 .. d7_0) and eight one-bit ones (d0_1 .. d7_1), plus the derived names
"pr" (the even mixture of d0_1 and d3_1) and "noise" (uniform outcomes).
Samplers draw integer weights from a seeded random.Random stream and build
integer boxes from them, so a family spec plus a count pins the exact boxes;
shorter runs are prefixes of longer ones.  The canonical boxes, and the
boxes.MixingTable of each mixture family and of the isotropic line, are built
once, on first use, and cached; a mixture is boxes.mix_ints of integer
weights over its table, one product of the weights with the table's matrix.
Each weight is read straight from the generator's bits: 17 bits at a time,
drawn again above 65536.  Those are exactly the calls rng.randint(0, 65536)
makes, so the stream, and every sampled box, is the one randint gives.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import cos, pi
from typing import Iterator

from ._record import Record
from .boxes import (
    Box,
    DeterministicBox,
    MixingTable,
    enumerate_deterministic,
    exact_fraction,
    mix_ints,
    relabel,
    relabeling_group,
)

FAMILY_KINDS = ("general", "chsh16_mixture", "oneway_slice", "no_signaling")


class UnknownName(ValueError):
    """No canonical box has this name."""


class BadParameter(ValueError):
    """A family parameter is outside its allowed range."""


# Output tables indexed by setting pair (0,0), (0,1), (1,0), (1,1).
_NAMED_TABLES: dict[str, tuple[tuple[int, int, int, int], tuple[int, int, int, int]]] = {
    "d0_0": ((0, 0, 0, 0), (0, 0, 0, 0)),
    "d1_0": ((0, 0, 1, 1), (0, 0, 0, 0)),
    "d2_0": ((0, 0, 0, 0), (1, 0, 1, 0)),
    "d3_0": ((1, 1, 0, 0), (1, 0, 1, 0)),
    "d4_0": ((0, 0, 1, 1), (0, 1, 0, 1)),
    "d5_0": ((1, 1, 1, 1), (0, 1, 0, 1)),
    "d6_0": ((1, 1, 0, 0), (1, 1, 1, 1)),
    "d7_0": ((1, 1, 1, 1), (1, 1, 1, 1)),
    "d0_1": ((0, 0, 0, 0), (0, 0, 1, 0)),
    "d1_1": ((1, 1, 0, 0), (1, 1, 1, 0)),
    "d2_1": ((0, 0, 1, 1), (0, 0, 0, 1)),
    "d3_1": ((1, 1, 1, 1), (1, 1, 0, 1)),
    "d4_1": ((0, 0, 1, 0), (0, 0, 0, 0)),
    "d5_1": ((1, 0, 0, 0), (1, 0, 1, 0)),
    "d6_1": ((0, 1, 1, 1), (0, 1, 0, 1)),
    "d7_1": ((1, 1, 0, 1), (1, 1, 1, 1)),
}

_DERIVED_NAMES = ("pr", "noise")


def canonical_names() -> tuple[str, ...]:
    """The 16 basis names in order, then the derived names pr and noise."""
    return tuple(_NAMED_TABLES) + _DERIVED_NAMES


def _det_for_tables(
    out_a: tuple[int, int, int, int], out_b: tuple[int, int, int, int]
) -> DeterministicBox:
    f_val = 8 * out_a[0] + 4 * out_a[1] + 2 * out_a[2] + out_a[3]
    g_val = 8 * out_b[0] + 4 * out_b[1] + 2 * out_b[2] + out_b[3]
    det = enumerate_deterministic()[16 * f_val + g_val]
    assert det.out_a == out_a and det.out_b == out_b
    return det


@lru_cache(maxsize=1)
def canonical_det_ids() -> tuple[int, ...]:
    """Strategy ids of the 16 named deterministic boxes, in name order."""
    return tuple(
        _det_for_tables(out_a, out_b).id for out_a, out_b in _NAMED_TABLES.values()
    )


def canonical_deterministic(name: str) -> DeterministicBox:
    """The named deterministic box; UnknownName for pr, noise, or anything
    else outside the 16-name basis."""
    try:
        out_a, out_b = _NAMED_TABLES[name]
    except KeyError:
        raise UnknownName(f"no deterministic box named {name!r}") from None
    return _det_for_tables(out_a, out_b)


@lru_cache(maxsize=None)
def canonical(name: str) -> Box:
    """A canonical box by name: the 16 basis names, pr, or noise.  Each is
    built once; a Box is immutable, so every call shares it."""
    if name == "noise":
        return Box.from_numerators([1] * 16, 4)
    if name == "pr":
        return mix_ints((1, 1), (canonical("d0_1"), canonical("d3_1")))
    return canonical_deterministic(name).as_box()


@lru_cache(maxsize=1)
def _isotropic_table() -> MixingTable:
    return MixingTable((canonical("pr"), canonical("noise")))


def isotropic(v: Fraction | int | str) -> Box:
    """Mixture v * pr + (1 - v) * noise for v in [0, 1].  v must be exact,
    as mix's weights: a float raises TypeError."""
    weight = exact_fraction(v)
    if not 0 <= weight <= 1:
        raise BadParameter(f"isotropic parameter must be in [0, 1], got {weight}")
    n, d = weight.numerator, weight.denominator
    return mix_ints((n, d - n), _isotropic_table())


# Measurement angles that maximize the CHSH value of a quantum box.
TSIRELSON_ANGLES = (0.0, pi / 2, pi / 4, -pi / 4)
_ANGLE_NAMES = ("theta_a0", "theta_a1", "theta_b0", "theta_b1")


def quantum_box(
    angles: tuple[float, float, float, float], approx_denominator: int = 10**6
) -> Box:
    """Correlated box with uniform marginals from measurement angles
    (theta_a0, theta_a1, theta_b0, theta_b1): the correlator at settings
    (a, b) is cos(theta_a - theta_b), rationalized to the denominator bound.

    The result is exact arithmetic on an approximate input: downstream
    quantities are exact for the rationalized box, not for the ideal one."""
    if len(angles) != 4:
        raise BadParameter(f"need two angles per party, got {len(angles)}")
    for name, angle in zip(_ANGLE_NAMES, angles):
        if not math.isfinite(angle):
            raise BadParameter(
                f"angle {name} must be a finite number of radians, got {angle}"
            )
    if approx_denominator < 1:
        raise BadParameter(
            f"denominator bound must be at least 1, got {approx_denominator}"
        )
    correlators = []
    for a in range(2):
        for b in range(2):
            e = Fraction(cos(angles[a] - angles[2 + b]))
            e = e.limit_denominator(approx_denominator)
            correlators.append(min(max(e, Fraction(-1)), Fraction(1)))
    # Cells (1 + e) / 4 and (1 - e) / 4 over the common denominator 4 * common.
    common = math.lcm(*(e.denominator for e in correlators))
    cells = []
    for e in correlators:
        k = common // e.denominator
        same, diff = (e.denominator + e.numerator) * k, (e.denominator - e.numerator) * k
        cells.extend([same, diff, diff, same])
    return Box.from_numerators(cells, 4 * common)


@lru_cache(maxsize=1)
def no_signaling_vertices() -> tuple[Box, ...]:
    """The 24 extreme points of the no-signaling polytope: 16 zero-bit
    deterministic boxes (by strategy id) and the 8 relabelings of pr."""
    locals_ = [
        det.as_box() for det in enumerate_deterministic() if det.cost_bits == 0
    ]
    assert len(locals_) == 16
    pr = canonical("pr")
    prs = sorted({relabel(pr, r) for r in relabeling_group()}, key=lambda box: box.p)
    assert len(prs) == 8
    return tuple(locals_ + prs)


class FamilySpec(Record):
    """A sampling family plus its seed; equal specs sample equal boxes.  The
    seed must be nonnegative: random.Random seeds with its absolute value, so
    a negative seed would sample another seed's boxes under its own name."""

    kind: str
    seed: int

    def __init__(self, kind: str, seed: int) -> None:
        if kind not in FAMILY_KINDS:
            raise BadParameter(f"unknown family {kind!r}, expected one of {FAMILY_KINDS}")
        if seed < 0:
            raise BadParameter(f"seed must be nonnegative, got {seed}")
        self.__dict__.update(kind=kind, seed=seed)


def _draw_weights(rng: random.Random, count: int) -> list[int]:
    """count raw integer weights in [0, 65536] with a positive sum, each
    drawn as rng.randint(0, 65536) draws it: 17 bits, again while above
    65536."""
    getrandbits = rng.getrandbits
    while True:
        raw = []
        for _ in range(count):
            weight = getrandbits(17)
            while weight > 65536:
                weight = getrandbits(17)
            raw.append(weight)
        if any(raw):
            return raw


def _sample_general(rng: random.Random) -> Box:
    # Each setting column is one draw of four weights over their own total.
    columns = [_draw_weights(rng, 4) for _ in range(4)]
    totals = [sum(column) for column in columns]
    den = math.lcm(*totals)
    return Box.from_numerators(
        [r * (den // t) for column, t in zip(columns, totals) for r in column], den
    )


def _mixture_over(rng: random.Random, table: MixingTable) -> Box:
    return mix_ints(_draw_weights(rng, len(table)), table)


@lru_cache(maxsize=None)
def _mixture_table(kind: str) -> MixingTable:
    if kind == "no_signaling":
        return MixingTable(no_signaling_vertices())
    names = canonical_names()[:16 if kind == "chsh16_mixture" else 8]
    if kind == "oneway_slice":
        names += ("d0_1", "d1_1", "d2_1", "d3_1")
    return MixingTable([canonical(name) for name in names])


def draw(spec: FamilySpec, count: int) -> Iterator[Box]:
    """The boxes of sample(spec, count), drawn one at a time as they are
    consumed; stopping early draws no further box."""
    if count < 0:
        raise BadParameter(f"count must be nonnegative, got {count}")
    rng = random.Random(spec.seed)
    table = None if spec.kind == "general" else _mixture_table(spec.kind)
    for _ in range(count):
        yield _sample_general(rng) if table is None else _mixture_over(rng, table)


def sample(spec: FamilySpec, count: int) -> list[Box]:
    """count boxes drawn from the family; deterministic in (spec, count)."""
    return list(draw(spec, count))
