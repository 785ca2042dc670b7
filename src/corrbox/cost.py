"""Communication cost of a box over deterministic-strategy decompositions.

A decomposition writes the box as a convex combination of deterministic
boxes; its cost is the weighted number of communicated bits.  Two bases are
supported: the full set of 256 deterministic boxes (every valid box is a
mixture of these, so the program is always feasible) and the 16-element
canonical basis, where membership can genuinely fail.

Two paths give C.  communication_cost wants a decomposition to print, so it
runs the two-phase simplex from the artificial basis, whose vertex is fixed
by its pivot rules; the box enters the program as its own integer numerators
and denominator.  optimal_cost wants only C, which by LP duality is the
largest y.p over the vertices y of the dual polytope
{y : y.d_j <= cost_j for all 256 strategies d_j}, taken modulo its
lineality (a constant added to one setting's cells and taken from
another's).  It has 408 vertices in 8 orbits of the 128 relabelings
(_DUAL_ORBITS; tests/test_cost.py proves the list valid and complete), so
optimal_cost reads C as an exact integer maximum over that table, and
communication_cost checks its value against the table on every box.

On the canonical basis every decomposition costs (F - 2) / 2, with F the
signed correlator sum of measures._signed_pattern.  That form is a table
row, tight on exactly the 16 canonical strategies, so by complementary
slackness a box is in their hull exactly when the row attains the maximum.

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
    """2 den (F - 2) / 2: the numerator over 2 den of C on the 16-box hull."""
    return _signed_pattern(box) - 2 * box.den


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


def _decomposition(
    solution: lp.LpSolution, ids: tuple[int, ...], basis: str
) -> Decomposition:
    """The decomposition at an optimal vertex: the nonzero weights of its
    basic columns, in ascending column order."""
    assert solution.basis is not None
    point = solution.point
    weights = {ids[j]: point[j] for j in solution.basis if point[j] != 0}
    dets = enumerate_deterministic()
    cost = sum(
        (w * dets[i].cost_bits for i, w in weights.items()), Fraction(0)
    )
    return Decomposition(weights=weights, basis_kind=basis, cost=cost)


def _solve_cost(
    box: Box, basis: str
) -> tuple[lp.LpSolution, lp._Engine | None, _CostSystem]:
    """The two-phase solve of the cost program on box."""
    system = _system_for(basis)
    solution, engine = lp._solve_prepared(system.prep, box.num, box.den)
    if solution.status == "infeasible":
        if basis == "full256":
            raise RuntimeError("a valid box left the full deterministic hull")
        raise NotInHull(_OUTSIDE_HULL)
    if solution.status != "optimal":
        raise RuntimeError(f"cost program ended {solution.status}")
    return solution, engine, system


def optimal_cost(box: Box, basis: str = "full256") -> Fraction:
    """The optimal cost C alone, read from the dual-vertex table.  On chsh16
    it is (F - 2) / 2, which is C on full256 exactly when the box is in the
    16-box hull.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    _check_basis(basis)
    top = _cost_numerator(box)
    if basis == "chsh16" and _hull_numerator(box) != top:
        raise NotInHull(_OUTSIDE_HULL)
    return Fraction(top, 2 * box.den)


def communication_cost(box: Box, basis: str = "full256") -> CostReport:
    """Minimal expected communicated bits over decompositions in the basis,
    as the box's Analysis with an optimal decomposition.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    solution, _, system = _solve_cost(box, basis)
    assert solution.value is not None
    if basis == "full256" and solution.value != (table := optimal_cost(box)):
        raise RuntimeError(
            f"program value {solution.value} disagrees with the dual-vertex table's {table}"
        )
    decomposition = _decomposition(solution, system.ids, basis)
    # The decomposition's cost is summed in Fractions from the point, the
    # value in integers from the basic state: two independent computations.
    if decomposition.cost != solution.value:
        raise RuntimeError("decomposition cost disagrees with program value")
    return CostReport(box, solution.value, decomposition)


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
    face finds none.  Raises NotInHull like communication_cost."""
    solution, engine, system = _solve_cost(box, basis)
    assert solution.value is not None and engine is not None
    first = _decomposition(solution, system.ids, basis)
    other = lp._alternative_from_engine(engine, engine.support())
    if other is None:
        return first, None
    return first, _decomposition(other, system.ids, basis)


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
