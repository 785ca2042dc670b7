"""Core types for two-input two-output bipartite correlation boxes.

A box is the conditional distribution P(A, B | a, b) with all four variables
binary.  Entries are indexed by 8*a + 4*b + 2*A + B, i.e. grouped into four
setting columns (a, b) in the order (0,0), (0,1), (1,0), (1,1), each column
holding the four outcomes (A, B) in the order (0,0), (0,1), (1,0), (1,1).

A Box stores them as 16 integer numerators over one positive denominator, in
lowest terms across all 16 cells, so equal boxes have equal numerators and
denominators, and it is validated in integers.  p is the same box as 16
Fractions, built on first read.

mix_ints is the one mixing kernel.  It mixes through a MixingTable, which
holds the parts scaled to their common denominator and stored sparsely: for
each of the 16 cells, the parts whose scaled numerator there is nonzero and,
unless they are all 1, those numerators.  A cell of a mixture is then the sum
of the few weights that touch it, or their dot product with the
coefficients; Box.from_numerators reduces and validates the result.  The
samplers and the constant mixtures in generators build their tables once and
hand them integer weights; mix passes its boxes, and mix_ints builds their
table for the weights mix has validated.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter, mul
from typing import Iterable, Sequence


class NegativeEntry(ValueError):
    """A probability entry is negative."""


class NotNormalized(ValueError):
    """A setting column does not sum to exactly 1."""


class BadWeights(ValueError):
    """Mixture weights are negative, empty, or do not sum to exactly 1."""


def cell_index(a: int, b: int, out_a: int, out_b: int) -> int:
    """Flat index of the cell P(out_a, out_b | a, b)."""
    return 8 * a + 4 * b + 2 * out_a + out_b


def exact_fraction(value: object) -> Fraction:
    """value as a Fraction: an int, a Fraction or a rational string such as
    "7/10" or "0.7".  Anything else raises TypeError: floats, whose binary
    expansion is rarely the rational that was meant, and bools.  A string
    that is no rational, or has a zero denominator, raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass exact rationals")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def format_fraction(x: Fraction) -> str:
    """Lowest-terms num/den string, e.g. 1/2, 0/1, 3/1."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, init=False)
class Box:
    """An exact correlation box: cell i is num[i] / den.  Invariants checked
    on construction.  Box(p) takes 16 Fractions; Box.from_numerators takes
    integers and brings them to lowest terms."""

    num: tuple[int, ...]
    den: int

    def __init__(self, p: Sequence[Fraction]) -> None:
        if len(p) != 16:
            raise ValueError(f"a box needs 16 entries, got {len(p)}")
        for i, value in enumerate(p):
            if not isinstance(value, Fraction):
                raise TypeError(f"entry {i} is {type(value).__name__}, not Fraction")
        # The lcm of the reduced cell denominators leaves the 16 numerators
        # and it with no common factor.
        den = math.lcm(*(x.denominator for x in p))
        self._store(tuple(x.numerator * (den // x.denominator) for x in p), den)

    @classmethod
    def from_numerators(cls, num: Sequence[int], den: int) -> Box:
        """The box with cells num[i] / den, for integers num and den > 0."""
        num = tuple(num)
        if len(num) != 16:
            raise ValueError(f"a box needs 16 entries, got {len(num)}")
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        common = math.gcd(den, *num)
        if common != 1:
            num = tuple(n // common for n in num)
            den //= common
        box = cls.__new__(cls)
        box._store(num, den)
        return box

    def _store(self, num: tuple[int, ...], den: int) -> None:
        if min(num) < 0:
            i = next(i for i, n in enumerate(num) if n < 0)
            raise NegativeEntry(f"entry {i} is negative: {Fraction(num[i], den)}")
        for setting in range(4):
            total = sum(num[4 * setting : 4 * setting + 4])
            if total != den:
                raise NotNormalized(
                    f"setting column {setting} sums to {Fraction(total, den)}, "
                    "expected 1"
                )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @cached_property
    def p(self) -> tuple[Fraction, ...]:
        """The 16 cells as Fractions (read-only)."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def prob(self, a: int, b: int, out_a: int, out_b: int) -> Fraction:
        return self.p[cell_index(a, b, out_a, out_b)]

    def setting_column(self, a: int, b: int) -> tuple[Fraction, ...]:
        base = 8 * a + 4 * b
        return self.p[base : base + 4]

    def marginal_a(self, a: int, b: int) -> Fraction:
        """P(A = 0 | a, b)."""
        base = 8 * a + 4 * b
        return self.p[base] + self.p[base + 1]

    def marginal_b(self, a: int, b: int) -> Fraction:
        """P(B = 0 | a, b)."""
        base = 8 * a + 4 * b
        return self.p[base] + self.p[base + 2]

    def expectation(self, a: int, b: int) -> Fraction:
        """Correlator E(a, b) under the outcome sign convention x -> (-1)^x."""
        base = 8 * a + 4 * b
        return self.p[base] - self.p[base + 1] - self.p[base + 2] + self.p[base + 3]


def box_from_table(entries: Sequence[object]) -> Box:
    """Build a validated Box from 16 rationals (int, str, or Fraction)."""
    return Box(tuple(exact_fraction(e) for e in entries))


# The pick of a cell that every part touches: the whole weight list.
_EVERY_PART = itemgetter(slice(None))


@lru_cache(maxsize=256)
def _sparse_cell(column: tuple[int, ...]) -> tuple[itemgetter, tuple[int, ...] | None]:
    """The (pick, coefficients) entry of a cell from the parts' scaled
    numerators there, some of them 0.  A single touching part is picked by a
    slice, since itemgetter of one index returns a scalar, and no touching
    part by an empty one."""
    touching = tuple(itertools.compress(range(len(column)), column))
    if len(touching) > 1:
        pick = itemgetter(*touching)
    else:
        pick = itemgetter(slice(touching[0], touching[0] + 1) if touching else slice(0))
    coefficients = tuple(filter(None, column))
    return pick, None if max(coefficients, default=1) == 1 else coefficients


@dataclass(frozen=True, init=False, eq=False)
class MixingTable:
    """Boxes made ready to mix, stored sparsely: every part's numerators are
    scaled to the parts' common denominator den, and cells[i] is the pair
    (pick, coefficients) for cell i.  pick(weights) is the sequence of the
    weights of the parts whose scaled numerator there is nonzero, and
    coefficients are those numerators, or None when some part leaves the
    cell at 0 and each of the others has 1 there, so the cell is a plain
    sum.  A cell that every part touches picks the whole weight list.  Equal sparse cells share one
    entry, across tables too.  count is the number of parts.  A table
    equals only itself, as its itemgetters do."""

    cells: tuple[tuple[itemgetter, tuple[int, ...] | None], ...]
    den: int
    count: int

    def __init__(self, parts: Sequence[Box]) -> None:
        if not parts:
            raise BadWeights("empty mixture")
        den = math.lcm(*(part.den for part in parts))
        scaled = [
            part.num if part.den == den else [n * (den // part.den) for n in part.num]
            for part in parts
        ]
        cells = tuple(
            (_EVERY_PART, column) if all(column) else _sparse_cell(column)
            for column in zip(*scaled)
        )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "count", len(parts))

    def __len__(self) -> int:
        """The number of parts."""
        return self.count


def mix_ints(weights: Sequence[int], parts: Sequence[Box] | MixingTable) -> Box:
    """The mixture sum_i weights[i] * parts[i] / sum(weights), for
    nonnegative integer weights with a positive sum, computed in integers.
    Parts mixed many times can be passed as their MixingTable."""
    table = parts if isinstance(parts, MixingTable) else MixingTable(parts)
    if len(weights) != len(table):
        raise BadWeights(f"{len(weights)} weights for {len(table)} parts")
    return Box.from_numerators(
        [
            sum(pick(weights)) if coefficients is None
            else sum(map(mul, pick(weights), coefficients))
            for pick, coefficients in table.cells
        ],
        table.den * sum(weights),
    )


def mix(terms: Iterable[tuple[object, Box]]) -> Box:
    """Convex mixture of boxes.  Weights must be exact and sum to 1."""
    pairs = [(exact_fraction(w), box) for w, box in terms]
    if not pairs:
        raise BadWeights("empty mixture")
    for w, _ in pairs:
        if w < 0:
            raise BadWeights(f"negative weight {w}")
    total = sum(w for w, _ in pairs)
    if total != 1:
        raise BadWeights(f"weights sum to {total}, expected 1")
    den = math.lcm(*(w.denominator for w, _ in pairs))
    return mix_ints(
        [w.numerator * (den // w.denominator) for w, _ in pairs],
        [box for _, box in pairs],
    )


class Direction(Enum):
    """Which way a deterministic strategy needs its inputs forwarded."""

    NONE = "none"
    A_TO_B = "AtoB"
    B_TO_A = "BtoA"
    BOTH = "both"


@dataclass(frozen=True)
class DeterministicBox:
    """A deterministic strategy: output tables over the four settings.

    out_a[k] and out_b[k] give the outputs at setting k = 2*a + b.  The id
    packs both tables as 16 * value(out_a) + value(out_b), where value() reads
    the table as a 4-bit number with setting (0,0) in the most significant bit.
    """

    id: int
    out_a: tuple[int, int, int, int]
    out_b: tuple[int, int, int, int]
    cost_bits: int
    direction: Direction

    def as_box(self) -> Box:
        cells = [0] * 16
        for a in range(2):
            for b in range(2):
                k = 2 * a + b
                cells[cell_index(a, b, self.out_a[k], self.out_b[k])] = 1
        return Box.from_numerators(cells, 1)


def _classify_tables(
    out_a: tuple[int, int, int, int], out_b: tuple[int, int, int, int]
) -> tuple[int, Direction]:
    a_depends_on_b = out_a[0] != out_a[1] or out_a[2] != out_a[3]
    b_depends_on_a = out_b[0] != out_b[2] or out_b[1] != out_b[3]
    cost = int(a_depends_on_b) + int(b_depends_on_a)
    if a_depends_on_b and b_depends_on_a:
        direction = Direction.BOTH
    elif b_depends_on_a:
        direction = Direction.A_TO_B
    elif a_depends_on_b:
        direction = Direction.B_TO_A
    else:
        direction = Direction.NONE
    return cost, direction


def classify(d: DeterministicBox) -> tuple[int, Direction]:
    """Communication bits and direction needed by a strategy's output tables."""
    return _classify_tables(d.out_a, d.out_b)


def _table_bits(value: int) -> tuple[int, int, int, int]:
    return ((value >> 3) & 1, (value >> 2) & 1, (value >> 1) & 1, value & 1)


@lru_cache(maxsize=1)
def enumerate_deterministic() -> tuple[DeterministicBox, ...]:
    """All 256 deterministic strategies, indexed by id."""
    out = []
    for fa in range(16):
        for gb in range(16):
            out_a = _table_bits(fa)
            out_b = _table_bits(gb)
            cost, direction = _classify_tables(out_a, out_b)
            out.append(
                DeterministicBox(
                    id=16 * fa + gb,
                    out_a=out_a,
                    out_b=out_b,
                    cost_bits=cost,
                    direction=direction,
                )
            )
    return tuple(out)


def is_no_signaling(box: Box) -> bool:
    """True iff each party's marginal is independent of the other's setting."""
    for a in range(2):
        if box.marginal_a(a, 0) != box.marginal_a(a, 1):
            return False
    for b in range(2):
        if box.marginal_b(0, b) != box.marginal_b(1, b):
            return False
    return True


@dataclass(frozen=True)
class Relabeling:
    """A symmetry of the box scenario.

    Applied as: optionally swap the parties, then flip inputs, then flip each
    party's outcome conditioned on that party's (pre-flip) input.  flip_out_a
    is indexed by the source setting of the first party, flip_out_b by the
    source setting of the second.
    """

    swap: bool
    flip_a: int
    flip_b: int
    flip_out_a: tuple[int, int]
    flip_out_b: tuple[int, int]

    def permutation(self) -> tuple[int, ...]:
        """perm[new_cell] = source_cell in the original box."""
        perm = [0] * 16
        for a in range(2):
            for b in range(2):
                a0 = a ^ self.flip_a
                b0 = b ^ self.flip_b
                for out_a in range(2):
                    for out_b in range(2):
                        oa = out_a ^ self.flip_out_a[a0]
                        ob = out_b ^ self.flip_out_b[b0]
                        if self.swap:
                            src = cell_index(b0, a0, ob, oa)
                        else:
                            src = cell_index(a0, b0, oa, ob)
                        perm[cell_index(a, b, out_a, out_b)] = src
        return tuple(perm)

    def inverse(self) -> "Relabeling":
        perm = self.permutation()
        inv = [0] * 16
        for i, j in enumerate(perm):
            inv[j] = i
        element = _group_by_permutation().get(tuple(inv))
        if element is None:
            raise RuntimeError("relabeling group is not closed under inversion")
        return element


def relabel(box: Box, r: Relabeling) -> Box:
    return Box.from_numerators([box.num[j] for j in r.permutation()], box.den)


@lru_cache(maxsize=1)
def relabeling_group() -> tuple[Relabeling, ...]:
    """All distinct scenario symmetries (deduplicated by cell permutation)."""
    seen: dict[tuple[int, ...], Relabeling] = {}
    bits = (0, 1)
    pairs = tuple(itertools.product(bits, bits))
    for swap in (False, True):
        for flip_a in bits:
            for flip_b in bits:
                for foa in pairs:
                    for fob in pairs:
                        r = Relabeling(swap, flip_a, flip_b, foa, fob)
                        seen.setdefault(r.permutation(), r)
    return tuple(seen.values())


@lru_cache(maxsize=1)
def _group_by_permutation() -> dict[tuple[int, ...], Relabeling]:
    return {r.permutation(): r for r in relabeling_group()}


def box_to_json_obj(box: Box) -> dict:
    """Serializable form: four setting columns of four num/den strings."""
    return {
        "format": "box-v1",
        "p": [
            [format_fraction(x) for x in box.setting_column(a, b)]
            for a in range(2)
            for b in range(2)
        ],
    }


def _json_entry(index: int, value: object) -> Fraction:
    try:
        return exact_fraction(value)
    except TypeError:
        raise ValueError(
            f"box entry {index} must be an integer or a rational string "
            f'such as "1/4", got {json.dumps(value)}'
        ) from None
    except ValueError as exc:
        raise ValueError(f"box entry {index}: {exc}") from None


def box_from_json_obj(obj: object) -> Box:
    """Parse and validate the box-v1 JSON object form.  Every entry must be
    a JSON integer or a rational string; anything else is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("box JSON must be an object")
    if obj.get("format") != "box-v1":
        raise ValueError(f"unsupported box format: {obj.get('format')!r}")
    columns = obj.get("p")
    if not isinstance(columns, list) or len(columns) != 4:
        raise ValueError("box JSON needs a 'p' list of 4 setting columns")
    for column in columns:
        if not isinstance(column, list) or len(column) != 4:
            raise ValueError("each setting column needs 4 outcome entries")
    return Box(tuple(_json_entry(i, x) for i, x in enumerate(itertools.chain(*columns))))
