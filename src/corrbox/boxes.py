"""Core types for two-input two-output bipartite correlation boxes.

A box is the conditional distribution P(A, B | a, b) with all four variables
binary.  Entries are indexed by 8*a + 4*b + 2*A + B, i.e. grouped into four
setting columns (a, b) in the order (0,0), (0,1), (1,0), (1,1), each column
holding the four outcomes (A, B) in the order (0,0), (0,1), (1,0), (1,1).

A Box stores them as 16 integer numerators over one positive denominator, in
lowest terms across all 16 cells, so equal boxes have equal numerators and
denominators, and it is validated in integers.  p is the same box as 16
Fractions, built on first read.

mix_ints is the one mixing kernel.  It mixes through a MixingTable, a
matrix whose row i holds part i's numerators scaled to the parts' common
denominator, so a mixture's numerators are one product of the integer
weights with that matrix; Box.from_numerators reduces and validates the
result.  The samplers and the constant mixtures in generators build their
tables once and hand them integer weights; mix passes its boxes, and
mix_ints builds their table for the weights mix has validated.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from ._record import Record


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
    that is no rational, has a zero denominator, or whose numerator or
    denominator would have more than sys.get_int_max_str_digits() digits
    raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass exact rationals")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    try:
        # Pythons before 3.10.7 have no digit limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # A string with no exponent and at most limit characters has parts
        # of at most limit digits.
        if isinstance(value, str) and limit and (len(value) > limit or "e" in value.lower()):
            return _bounded_fraction(value, limit)
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


_ZERO_DIGITS = str.maketrans("123456789", "000000000")


def _bounded_fraction(value: str, limit: int) -> Fraction:
    """Fraction(value), refused when a digit run, the numerator or the
    denominator has more than limit digits.  An exponent that would take a
    part past limit digits is refused before Fraction expands it, unless
    the mantissa is zero."""
    shown = repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
    mantissa, e, exp = value.lower().partition("e")
    runs = (*mantissa.replace("/", ".").split("."), exp)
    run = max(sum(map(str.isdecimal, part)) for part in runs)
    if run > limit:
        raise ValueError(f"{shown} has a run of {run} digits, more than the limit of {limit}")
    try:
        shift = abs(int(exp)) if e else 0
    except ValueError:  # no exponent: Fraction refuses the literal below
        shift = 0
    # A nonzero mantissa m times 10**exp has a part of more than limit
    # digits once |exp| > limit + the digits of m.
    if shift > limit + len(mantissa):
        try:  # the same literal with exponent 0, which Fraction reads at once
            zero = not Fraction(mantissa + e + exp.translate(_ZERO_DIGITS))
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {value!r}") from None
        if zero:
            return Fraction(0)
        raise ValueError(f"{shown} has an exponent past the limit of {limit} digits")
    result = Fraction(value)
    for part, n in (("numerator", result.numerator), ("denominator", result.denominator)):
        if abs(n) >= 10**limit:
            raise ValueError(f"{shown} has a {part} of more than the limit of {limit} digits")
    return result


def format_fraction(x: Fraction) -> str:
    """Lowest-terms num/den string, e.g. 1/2, 0/1, 3/1."""
    return f"{x.numerator}/{x.denominator}"


class Box(Record):
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


# Integers below this bound are int64 numpy entries, larger ones Python ints.
_INT64_LIMIT = 2**63


class MixingTable(Record):
    """Boxes made ready to mix: matrix[i] holds part i's 16 numerators
    scaled to the parts' common denominator den.  The matrix is read-only,
    since tables are cached and shared, and int64 unless den is 2**63 or
    more, when it holds Python integers.  A table equals only itself."""

    matrix: np.ndarray
    den: int

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, parts: Sequence[Box]) -> None:
        if not parts:
            raise BadWeights("empty mixture")
        den = math.lcm(*(part.den for part in parts))
        matrix = np.array(
            [[n * (den // part.den) for n in part.num] for part in parts],
            dtype=np.int64 if den < _INT64_LIMIT else object,
        )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "den", den)

    def __len__(self) -> int:
        """The number of parts."""
        return len(self.matrix)


def mix_ints(weights: Sequence[int], parts: Sequence[Box] | MixingTable) -> Box:
    """The mixture sum_i weights[i] * parts[i] / sum(weights), for
    nonnegative integer weights with a positive sum, computed in integers.
    Parts mixed many times can be passed as their MixingTable.

    The product runs in int64 when the mixture's denominator,
    table.den * sum(weights), is below 2**63, else in Python integers.  int64
    cannot overflow: weights are nonnegative and every matrix entry is at
    most table.den, so every cell and every partial sum is at most the
    mixture's denominator."""
    table = parts if isinstance(parts, MixingTable) else MixingTable(parts)
    if len(weights) != len(table):
        raise BadWeights(f"{len(weights)} weights for {len(table)} parts")
    if min(weights) < 0:
        raise BadWeights(f"negative weight {min(weights)}")
    # A float or Fraction weight makes the sum one, which index refuses.
    den = operator.index(table.den * sum(weights))
    if den == 0:
        raise BadWeights("weights sum to 0")
    dtype = np.int64 if den < _INT64_LIMIT else object
    cells = np.array(weights, dtype=dtype) @ table.matrix
    return Box.from_numerators(cells.tolist(), den)


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


class DeterministicBox(Record):
    """A deterministic strategy: output tables over the four settings.

    out_a[k] and out_b[k] give the outputs at setting k = 2*a + b.  The id
    reads the eight bits out_a then out_b, most significant first, as one
    number, so 16 * value(out_a) + value(out_b); _strategy_id is that packing
    and _strategy_table its inverse, the one place either is written.
    """

    id: int
    out_a: tuple[int, int, int, int]
    out_b: tuple[int, int, int, int]
    cost_bits: int
    direction: Direction

    def as_box(self) -> Box:
        """The strategy's box: its row of the strategy table's numerators."""
        return Box.from_numerators(_strategy_table()[1][self.id].tolist(), 1)


# The direction of each strategy table code 2 * (A reads b) + (B reads a).
_DIRECTIONS = (Direction.NONE, Direction.A_TO_B, Direction.B_TO_A, Direction.BOTH)


def _strategy_id(out_a: Sequence[int], out_b: Sequence[int]) -> int:
    """The id of the strategy with these output tables."""
    value = 0
    for bit in (*out_a, *out_b):
        value = 2 * value + bit
    return value


@lru_cache(maxsize=1)
def _strategy_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 256 deterministic strategies by id, as four read-only int64
    arrays, the one place a strategy's cells, cost and direction are worked
    out.  Row j of tables holds j's eight bits, most significant first: out_a
    then out_b.  Row j of nums is its box as numerators over 1, with a 1 in
    cell 4k + 2 out_a[k] + out_b[k] of each setting k.  bits[j] counts the
    parties whose output reads the other's setting, and codes[j] indexes
    _DIRECTIONS by which ones do.  The arrays are cached and shared, so they
    cannot be written."""
    tables = (np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1
    out_a, out_b = tables[:, :4], tables[:, 4:]
    nums = np.zeros((256, 16), dtype=np.int64)
    np.put_along_axis(nums, 4 * np.arange(4) + 2 * out_a + out_b, 1, axis=1)
    # A reads b when its output changes with b at some a; B reads a likewise.
    a_reads = (out_a[:, [0, 2]] != out_a[:, [1, 3]]).any(axis=1)
    b_reads = (out_b[:, [0, 1]] != out_b[:, [2, 3]]).any(axis=1)
    bits = a_reads.astype(np.int64) + b_reads
    codes = 2 * a_reads + b_reads
    for array in (tables, nums, bits, codes):
        array.setflags(write=False)
    return tables, nums, bits, codes


def classify(d: DeterministicBox) -> tuple[int, Direction]:
    """Communication bits and direction needed by a strategy's output tables:
    their row of the strategy table."""
    _, _, bits, codes = _strategy_table()
    j = _strategy_id(d.out_a, d.out_b)
    return int(bits[j]), _DIRECTIONS[codes[j]]


@lru_cache(maxsize=1)
def enumerate_deterministic() -> tuple[DeterministicBox, ...]:
    """All 256 deterministic strategies, indexed by id: the strategy table's
    rows as records."""
    tables, _, bits, codes = _strategy_table()
    rows = zip(tables.tolist(), bits.tolist(), codes.tolist())
    return tuple(
        DeterministicBox(j, tuple(row[:4]), tuple(row[4:]), cost, _DIRECTIONS[code])
        for j, (row, cost, code) in enumerate(rows)
    )


def is_no_signaling(box: Box) -> bool:
    """True iff each party's marginal is independent of the other's setting."""
    for a in range(2):
        if box.marginal_a(a, 0) != box.marginal_a(a, 1):
            return False
    for b in range(2):
        if box.marginal_b(0, b) != box.marginal_b(1, b):
            return False
    return True


class Relabeling(Record):
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
def _group_by_permutation() -> dict[tuple[int, ...], Relabeling]:
    """The relabeling group keyed by cell permutation: the one builder of the
    group.  Each of the 128 candidate parameter sets has its permutation
    computed once, and the first candidate with a given permutation stands
    for it, so the keys are the distinct permutations in candidate order."""
    group: dict[tuple[int, ...], Relabeling] = {}
    bits = (0, 1)
    pairs = tuple(itertools.product(bits, bits))
    for swap in (False, True):
        for flip_a in bits:
            for flip_b in bits:
                for foa in pairs:
                    for fob in pairs:
                        r = Relabeling(swap, flip_a, flip_b, foa, fob)
                        group.setdefault(r.permutation(), r)
    return group


@lru_cache(maxsize=1)
def relabeling_group() -> tuple[Relabeling, ...]:
    """All distinct scenario symmetries (deduplicated by cell permutation),
    in the order of _group_by_permutation."""
    return tuple(_group_by_permutation().values())


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
