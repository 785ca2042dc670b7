"""Communication cost of a box over deterministic-strategy decompositions.

A decomposition writes the box as a convex combination of deterministic
boxes; its cost is the weighted number of communicated bits.  Two bases are
supported: the full set of 256 deterministic boxes (every valid box is a
mixture of these, so the program is always feasible) and the 16-element
canonical basis, where membership can genuinely fail.

This module decides and checks everything about C, by two paths.
optimal_cost reads C alone from a table: by LP duality C is the largest y.p
over the vertices y of the dual polytope {y : y.d_j <= cost_j for all 256
strategies d_j}, taken modulo its lineality (a constant added to one
setting's cells and taken from another's).  It has 408 vertices in 8 orbits
of the 128 relabelings (_DUAL_ORBITS; tests/test_cost.py proves the list
valid and complete), and C is an exact integer maximum over them.  For a
decomposition, _solve_cost (also fuzz's cross-check, _prove_cost) runs the
two-phase simplex from the artificial basis, whose pivot rules fix its
vertex, on the box's integer numerators and denominator, and checks every
solve against the table; _decomposition checks every decomposition it
returns, the optimal-face search's included, against the program value.

On the canonical basis every decomposition costs (F - 2) / 2, with F the
signed correlator sum of measures._signed_pattern.  That form is a table
row, tight on exactly the 16 canonical strategies, so by complementary
slackness a box is in their hull exactly when the row attains the maximum:
_hull_cost, the one hull rule, reads C on chsh16 from C on full256.

communication_cost returns a CostReport: the box's measures.Analysis with
the decomposition it solved for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import lp
from .boxes import Box, enumerate_deterministic, format_fraction, mix, relabeling_group
from .generators import canonical_det_ids
from .measures import Analysis, _signed_pattern

BASIS_KINDS = ("full256", "chsh16")


class NotInHull(ValueError):
    """The box is not a mixture of the requested basis."""


_OUTSIDE_HULL = "box is not a mixture of the 16-box canonical basis"


class BadDimension(ValueError):
    """Alphabet dimension for eta_star must be at least 2."""


# The vertices of the full256 dual polytope, one representative per orbit of
# the relabelings with the orbit's size: 2y over cells 0..15, with
# y4 = y8 = y12 = 0.  The orbit of 8 holds the facet bound and (F - 2) / 2.
_DUAL_ORBITS = (
    (8, (0, 2, 2, 0, 0, -2, -2, 0, 0, -2, -2, 0, 0, -2, -2, 0)),
    (16, (0, 2, 2, 4, 0, 0, -2, -2, 0, -2, 0, -2, 0, 0, 0, 0)),
    (32, (0, 2, 0, 2, 0, -2, 0, -2, 0, -2, -2, -2, 0, 0, 0, 2)),
    (32, (0, 2, 2, 2, 0, 0, -2, 0, 0, -2, 0, -2, 0, -2, 0, -2)),
    (64, (0, 2, 1, 3, 0, -2, -1, -3, 0, -2, -1, -1, 0, 0, -1, 1)),
    (64, (0, 2, 2, 2, 0, -2, -2, -2, 0, -2, -2, -2, 0, 0, 0, 2)),
    (64, (0, 2, 2, 2, 0, 0, -2, 0, 0, -2, 0, 0, 0, -2, -2, -2)),
    (128, (0, 2, 2, 3, 0, -1, -2, -1, 0, -2, -2, -3, 0, -1, 0, 1)),
)
# A denominator of at most this many bits takes one exact int64 matmul.
_INT64_BITS = 40
# Above it, the rows within this margin of a coarse pass's maximum are read
# exactly: a coarse value is off by less than its row's sum of |2y| (at most
# 32), so every exactly largest row lies within twice that.
_COARSE_MARGIN = 2**8


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Rows 2y moved along the lineality to y4 = y8 = y12 = 0: the one
    representative of each class, with the same value on every box."""
    first = rows[:, ::4]
    out = rows - np.repeat(first, 4, axis=1)
    out[:, :4] += first.sum(axis=1, keepdims=True)
    return out


@lru_cache(maxsize=1)
def _dual_vertices() -> np.ndarray:
    """The dual vertices as rows 2y: each orbit of _DUAL_ORBITS expanded under
    the relabelings, each row normalized; int64 and read-only."""
    perms = np.array([r.permutation() for r in relabeling_group()])
    rows: list[tuple[int, ...]] = []
    for size, rep in _DUAL_ORBITS:
        orbit = _normalized(np.array(rep, dtype=np.int64)[perms]).tolist()
        distinct = dict.fromkeys(map(tuple, orbit))
        if len(distinct) != size:
            raise RuntimeError(f"dual orbit has {len(distinct)} rows, expected {size}")
        rows += distinct
    table = np.array(rows, dtype=np.int64)
    table.setflags(write=False)
    return table


def _hull_numerator(box: Box) -> int:
    """2 den (F - 2) / 2: the numerator over 2 den of the form (F - 2) / 2."""
    return _signed_pattern(box) - 2 * box.den


def _hull_cost(box: Box, c: Fraction) -> Fraction | None:
    """C on chsh16 of a box whose C on full256 is c: c itself when the form
    (F - 2) / 2 equals it, which is membership of the 16-box hull, else None.
    The one place the hull rule is written."""
    inside = _hull_numerator(box) * c.denominator == 2 * box.den * c.numerator
    return c if inside else None


def _cost_numerator(box: Box) -> int:
    """2 den C: the largest 2y.num over the dual vertices, exact.  A box with
    a denominator of 2**40 or more takes a coarse int64 pass on the top 40
    bits of its numerators, then exact Python integers on the rows near the
    coarse maximum."""
    table = _dual_vertices()
    shift = box.den.bit_length() - _INT64_BITS
    if shift <= 0:
        return int((table @ np.array(box.num, dtype=np.int64)).max())
    coarse = table @ np.array([v >> shift for v in box.num], dtype=np.int64)
    near = table[coarse >= coarse.max() - _COARSE_MARGIN].tolist()
    return max(sum(map(operator.mul, row, box.num)) for row in near)


@dataclass(frozen=True)
class Decomposition:
    """Convex combination of deterministic boxes, keyed by strategy id.

    weights holds only nonzero entries; cost is the weighted bit count."""

    weights: dict[int, Fraction]
    basis_kind: str
    cost: Fraction

    def as_mixture(self) -> Box:
        dets = enumerate_deterministic()
        return mix([(w, dets[i].as_box()) for i, w in sorted(self.weights.items())])


@dataclass(frozen=True)
class CostReport(Analysis):
    """The box's Analysis at its optimal cost c, with an optimal decomposition
    of that cost: eta = c - s is the part no signal accounts for, lower_bound
    the facet bound max(0, (lambda_max - 2) / 2)."""

    decomposition: Decomposition


@dataclass(frozen=True)
class _CostSystem:
    """The cost program over one basis: its prepared columns (with the costs
    in bits) and the strategy id of each column."""

    prep: lp._Prepared
    ids: tuple[int, ...]


def _check_basis(basis: str) -> None:
    if basis not in BASIS_KINDS:
        raise ValueError(f"unknown basis {basis!r}, expected one of {BASIS_KINDS}")


@lru_cache(maxsize=len(BASIS_KINDS))
def _system_for(basis: str) -> _CostSystem:
    _check_basis(basis)
    ids = tuple(range(256)) if basis == "full256" else canonical_det_ids()
    dets = enumerate_deterministic()
    columns = np.array([dets[i].as_box().num for i in ids], dtype=np.int64).T.copy()
    costs = [dets[i].cost_bits for i in ids]
    return _CostSystem(prep=lp._prepare_int01(columns, costs), ids=ids)


def _decomposition(solution: lp.LpSolution, basis: str, where: str = "") -> Decomposition:
    """The decomposition at an optimal vertex: the nonzero weights of its
    basic columns, in ascending column order.  Its cost, summed from the
    point's Fractions, must equal the program value, computed in integers
    from the basic state, else RuntimeError, its message ending in where."""
    assert solution.basis is not None
    ids, point = _system_for(basis).ids, solution.point
    weights = {ids[j]: point[j] for j in solution.basis if point[j] != 0}
    dets = enumerate_deterministic()
    # One exact sum over the common denominator, a quarter of Fraction adds' time.
    common = math.lcm(*(w.denominator for w in weights.values()))
    bits = sum(
        w.numerator * (common // w.denominator) * dets[i].cost_bits
        for i, w in weights.items()
    )
    cost = Fraction(bits, common)
    if cost != solution.value:
        raise RuntimeError(f"decomposition cost disagrees with program value{where}")
    return Decomposition(weights=weights, basis_kind=basis, cost=cost)


def _table_cost(box: Box, basis: str) -> Fraction | None:
    """C on the basis from the dual-vertex table, or None outside the chsh16 hull."""
    c = Fraction(_cost_numerator(box), 2 * box.den)
    return c if basis == "full256" else _hull_cost(box, c)


def _solve_cost(
    box: Box, basis: str, c: Fraction | None = None, where: str = ""
) -> tuple[Decomposition, lp._Engine]:
    """The two-phase solve of the cost program on box, checked against the
    table's cost c on the basis (read here unless given): the program must be
    feasible exactly when c exists, and its value must equal c, else
    RuntimeError, its message ending in where; _decomposition checks the
    decomposition at its vertex against that value.  Raises NotInHull when
    the table and program agree that the box lies outside the chsh16 hull."""
    if c is None:
        c = _table_cost(box, basis)
    solution, engine = lp._solve_prepared(_system_for(basis).prep, box.num, box.den)
    value = solution.value
    if value != c:
        program = f"{solution.status} {basis} program"
        got = program if value is None else f"program value {value}"
        want = c if c is not None else "not-in-hull"
        raise RuntimeError(f"{got} disagrees with the dual-vertex table's {want}{where}")
    if engine is None:
        raise NotInHull(_OUTSIDE_HULL)
    return _decomposition(solution, basis, where), engine


def _prove_cost(box: Box, c: Fraction, label: str) -> None:
    """Prove the table's C = c on box with a checked solve: of the chsh16
    program when c is the form (F - 2) / 2, whose feasibility and value
    prove both C and hull membership, else of the full256 one.  A
    disagreement's message ends in " on <label>"."""
    basis = "full256" if _hull_cost(box, c) is None else "chsh16"
    _solve_cost(box, basis, c, f" on {label}")


def optimal_cost(box: Box, basis: str = "full256") -> Fraction:
    """The optimal cost C alone, read from the dual-vertex table.  On chsh16
    it is (F - 2) / 2, which is C on full256 exactly when the box is in the
    16-box hull.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    _check_basis(basis)
    c = _table_cost(box, basis)
    if c is None:
        raise NotInHull(_OUTSIDE_HULL)
    return c


def communication_cost(box: Box, basis: str = "full256") -> CostReport:
    """Minimal expected communicated bits over decompositions in the basis,
    as the box's Analysis with an optimal decomposition.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    decomposition, _ = _solve_cost(box, basis)
    return CostReport(box, decomposition.cost, decomposition)


def check_dimension(d: int) -> None:
    """Raise BadDimension unless d is an alphabet size eta_star takes."""
    if d < 2:
        raise BadDimension(f"alphabet dimension must be at least 2, got {d}")


def eta_star_of_cost(c: Fraction, d: int) -> float:
    """eta_star from a cost already solved: c - log2(d)."""
    check_dimension(d)
    return float(c) - math.log2(d)


def eta_star(box: Box, d: int) -> float:
    """Signal deficit against a d-letter channel: c - log2(d).  Approximate:
    this is the one quantity in the package computed in floating point."""
    return eta_star_of_cost(optimal_cost(box), d)


def optimal_decompositions(
    box: Box, basis: str = "full256"
) -> tuple[Decomposition, Decomposition | None]:
    """The optimal decomposition communication_cost reports, and a second
    one with a different support, or None when the search over the optimal
    face finds none.  The cost of each is checked against the program value.
    Raises NotInHull like communication_cost."""
    first, engine = _solve_cost(box, basis)
    other = lp._alternative_from_engine(engine, engine.support())
    return first, None if other is None else _decomposition(other, basis)


def find_distinct_decompositions(
    box: Box, basis: str = "full256"
) -> tuple[Decomposition, Decomposition] | None:
    """Two optimal decompositions with different supports, or None when the
    optimum's support is unique on the optimal face."""
    first, second = optimal_decompositions(box, basis)
    return None if second is None else (first, second)


def decomposition_to_json_obj(decomposition: Decomposition) -> dict:
    weights = {
        str(i): format_fraction(w) for i, w in sorted(decomposition.weights.items())
    }
    return {
        "basis": decomposition.basis_kind,
        "cost": format_fraction(decomposition.cost),
        "weights": weights,
    }
