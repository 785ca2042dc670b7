"""Communication cost of a box over deterministic-strategy decompositions.

A decomposition writes the box as a convex combination of deterministic
boxes; its cost is the weighted number of communicated bits.  Two bases are
supported: the full set of 256 deterministic boxes (every valid box is a
mixture of these, so the program is always feasible) and the 16-element
canonical basis, where membership can genuinely fail.

Two paths solve the same program.  communication_cost wants a decomposition
to print, so it runs the two-phase simplex from the artificial basis, whose
vertex is fixed by its pivot rules.  optimal_cost wants only C, which is
unique although its vertex is not, so it runs the dual simplex from the
basis's cached start state and certifies the value with a dual-feasible
vector of the same value; optimal_costs runs that solve along an ordered
sequence of boxes, each from the previous box's optimal basis.  Both paths
read the value from the solver's integer state and end with an integer check
that the final basis is dual-feasible.  The box enters the program as its
own integer numerators and denominator.

communication_cost returns a CostReport: the box's measures.Analysis with
the decomposition it solved for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import lp
from .boxes import Box, enumerate_deterministic, format_fraction, mix
from .generators import canonical_det_ids
from .measures import Analysis, _chsh_values, _facet_bound

BASIS_KINDS = ("full256", "chsh16")


class NotInHull(ValueError):
    """The box is not a mixture of the requested basis."""


class BadDimension(ValueError):
    """Alphabet dimension for eta_star must be at least 2."""


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
    in bits), the strategy id of each column, and the warm-start state."""

    prep: lp._Prepared
    ids: tuple[int, ...]

    @cached_property
    def start(self) -> lp._Start:
        """Optimal basis of the uniform mixture of the basis's own columns
        (noise for full256), which is in the hull.  Built on the first warm
        solve, so commands that only decompose never pay for it."""
        counts = [int(k) for k in self.prep.a_int.sum(axis=1)]
        return lp._start_state(self.prep, counts, self.prep.n)


@lru_cache(maxsize=len(BASIS_KINDS))
def _system_for(basis: str) -> _CostSystem:
    if basis == "full256":
        ids = tuple(range(256))
    elif basis == "chsh16":
        ids = canonical_det_ids()
    else:
        raise ValueError(f"unknown basis {basis!r}, expected one of {BASIS_KINDS}")
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
    box: Box, basis: str, warm: bool = False, start: lp._Start | None = None
) -> tuple[lp.LpSolution, lp._Engine | None, _CostSystem]:
    """The cost program on box: the dual simplex from start, or from the
    basis's cached start when warm, else the two-phase solve."""
    system = _system_for(basis)
    if warm:
        start = system.start
    solution, engine = lp._solve_prepared(system.prep, box.num, box.den, start)
    if solution.status == "infeasible":
        if basis == "full256":
            raise RuntimeError("a valid box left the full deterministic hull")
        raise NotInHull("box is not a mixture of the 16-box canonical basis")
    if solution.status != "optimal":
        raise RuntimeError(f"cost program ended {solution.status}")
    return solution, engine, system


def optimal_cost(box: Box, basis: str = "full256") -> Fraction:
    """The optimal cost C alone, without a decomposition.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    solution, _, _ = _solve_cost(box, basis, warm=True)
    assert solution.value is not None
    return solution.value


def optimal_costs(
    boxes: Iterable[Box], basis: str = "full256"
) -> Iterator[Fraction | None]:
    """optimal_cost for each box of an ordered sequence, solved as one warm
    path, or None for a box outside the chsh16 hull.  Each solve starts at
    the previous box's optimal basis (the first at the basis's cached
    start), which is dual-feasible for every box since only the right-hand
    side changes, so neighbouring boxes that share an optimal basis take
    few pivots.  A box outside the hull keeps the last start."""
    start = _system_for(basis).start
    for box in boxes:
        try:
            solution, engine, _ = _solve_cost(box, basis, start=start)
        except NotInHull:
            yield None
            continue
        assert engine is not None
        # an unchanged ordered basis has the same adjugate: the start stands
        if tuple(engine.basis) != start.basis:
            start = lp._start_from(engine)
        yield solution.value


def facet_bound(box: Box) -> Fraction:
    """The facet lower bound on C: max(0, (lambda_max - 2) / 2)."""
    return Fraction(*_facet_bound(max(_chsh_values(box)), box.den))


def communication_cost(box: Box, basis: str = "full256") -> CostReport:
    """Minimal expected communicated bits over decompositions in the basis,
    as the box's Analysis with an optimal decomposition.

    Raises NotInHull when basis="chsh16" and the box lies outside that hull."""
    solution, _, system = _solve_cost(box, basis)
    assert solution.value is not None
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
