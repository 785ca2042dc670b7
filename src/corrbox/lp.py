"""Exact rational linear programming.

Minimize c.x subject to A x = b, x >= 0, with every coefficient a Fraction.
The solver is a revised simplex with Bland's rule, run fraction-free: the
basis inverse is carried as an integer adjugate matrix M with determinant
delta, so every tableau quantity is an exact integer and every status comes
with a checkable certificate.

Arithmetic path, fixed at prepare time.  A system with 0/1 matrix entries, at
most 16 rows and integer costs of at most 2**20 (the deterministic-strategy
systems this package solves) runs on int64 numpy kernels; anything else runs
on arbitrary-precision Python integers.  The int64 path cannot overflow:
every basis matrix of such a system is 0/1 (structural or artificial
columns).  By Hadamard's bound, (k + 1)**((k + 1) / 2) / 2**k for a k x k
0/1 matrix, each adjugate entry (a 15 x 15 minor) is at most 2**17, and
delta, each w_i and each M_r a_j (16 x 16 determinants, by Cramer's rule)
are at most 438870 < 2**18.75.  A delta-scaled reduced cost is then below
17 * 2**20 * 2**18.75 < 2**43, and the largest kernel product, a reduced
cost times a ratio-test denominator, stays below 2**62.

Update rule per pivot (entering column j, pivot row p, w = M a_j):
    delta' = w_p,   M'_p = M_p,   M'_i = (w_p M_i - w_i M_p) / delta
The division is exact (Sylvester's identity); the solver asserts zero
remainders, which doubles as an overflow trip-wire.

The engine reads the right-hand side b as integer numerators over one
positive denominator (a box's own form; solve converts a LinearProgram's
Fractions once).  Every value and every vertex check is read from the
integer state: value() sums the integer costs of the basic columns over one
denominator, and check_basic_state re-substitutes xi into A x = b.  The
two-phase and warm solves and each vertex the optimal-face search returns
(it pivots a copy of the engine) pass both; Fractions appear only when a
point is read out.  Both solves also end with check_dual_feasible, an
integer check that every reduced cost at the optimal basis is nonnegative.

Warm start.  Reduced costs depend on the basis and the objective only, so an
optimal basis of one right-hand side is dual-feasible for every other one.
_start_state records such a basis (with its M, delta and inert rows) and
_solve_prepared(..., start=...) runs a dual simplex from it, with no phase 1:
seed xi = M b; while some basic value is negative, the most negative row
leaves (after _BLAND_AFTER pivots, the row of the smallest basic index), and
the column entering is the one with the least ratio
    delta * reduced_j / -(M_r a_j)   over columns with (M_r a_j) / delta < 0,
compared by integer cross-multiplication, ties to the smallest index.  The
pivot itself is the same fraction-free update.  A row that no column can
enter, or an inert row with xi != 0, proves infeasibility with that row of M
as the Farkas vector.  At the end every reduced cost is checked nonnegative
in integers and the basic state re-substituted, so an optimal warm solve
carries both a primal check and a dual certificate y with y.A <= objective
and y.rhs = value.  It reports the value and the basis, not the point.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_ITERATION_CAP = 50000
# Steepest-descent pricing for this many pivots, then Bland's rule, whose
# first-index selection provably terminates from any basis.
_BLAND_AFTER = 200


class DimensionMismatch(ValueError):
    """Matrix, rhs, and objective shapes disagree."""


@dataclass(frozen=True)
class LinearProgram:
    """Equality-form program: minimize objective.x with A x = rhs, x >= 0."""

    constraint_matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    objective: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        m = len(self.constraint_matrix)
        if m == 0:
            raise DimensionMismatch("no constraint rows")
        n = len(self.constraint_matrix[0])
        if n == 0:
            raise DimensionMismatch("no columns")
        for i, row in enumerate(self.constraint_matrix):
            if len(row) != n:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {n}")
        if len(self.rhs) != m:
            raise DimensionMismatch(f"rhs has {len(self.rhs)} entries, expected {m}")
        if len(self.objective) != n:
            raise DimensionMismatch(
                f"objective has {len(self.objective)} entries, expected {n}"
            )


@dataclass(frozen=True)
class LpSolution:
    """status is one of optimal / infeasible / unbounded.

    value and basis are present only when optimal.  certificate carries a
    Farkas vector (infeasible: y.A <= 0 and y.rhs > 0) or a ray (unbounded:
    A ray = 0, ray >= 0, objective.ray < 0).  A warm-started solve reports
    no point; when optimal, its certificate is the dual vector y with
    y.A <= objective and y.rhs = value.
    """

    status: str
    value: Fraction | None
    point: tuple[Fraction, ...]
    basis: tuple[int, ...] | None
    certificate: tuple[Fraction, ...] | None = None


@dataclass
class _Prepared:
    """Integerized column system, reusable across solves with varying rhs."""

    m: int
    n: int
    a_int: np.ndarray  # (m, n); row i of the original matrix times row_scale[i]
    col_cost: list[int]
    cost_vec: np.ndarray  # col_cost as an array of the arithmetic path's dtype
    cost_den: int
    row_scale: tuple[int, ...]
    dtype: type  # np.int64 on the int64 path, else object (Python integers)

    @property
    def int_mode(self) -> bool:
        return self.dtype is np.int64


@dataclass(frozen=True)
class _Start:
    """An optimal basis of a prepared system, the state a warm solve starts
    from: basis (artificial index n + i on an inert row i), adjugate M
    (read-only), determinant delta, and the inert rows."""

    basis: tuple[int, ...]
    mat: np.ndarray
    delta: int
    inert: tuple[bool, ...]


def _lcm_of(denominators: Iterable[int]) -> int:
    out = 1
    for d in denominators:
        out = math.lcm(out, d)
    return out


def _prepared(
    a: np.ndarray, col_cost: list[int], cost_den: int, row_scale: Sequence[int]
) -> _Prepared:
    """Fix the arithmetic path once, by the int64 rule of the module
    docstring: 0/1 entries, at most 16 rows, costs of at most 2**20."""
    int_mode = (
        a.shape[0] <= 16
        and bool(((a == 0) | (a == 1)).all())
        and max(abs(c) for c in col_cost) <= 2**20
    )
    dtype = np.int64 if int_mode else object
    return _Prepared(
        m=a.shape[0],
        n=a.shape[1],
        a_int=a.astype(dtype),
        col_cost=col_cost,
        cost_vec=np.array(col_cost, dtype=dtype),
        cost_den=cost_den,
        row_scale=tuple(row_scale),
        dtype=dtype,
    )


def _prepare_program(program: LinearProgram) -> _Prepared:
    rows = []
    scales = []
    for i, row in enumerate(program.constraint_matrix):
        k = _lcm_of(x.denominator for x in row)
        sign = -1 if program.rhs[i] < 0 else 1
        scales.append(sign * k)
        rows.append([sign * int(x * k) for x in row])
    cost_den = _lcm_of(x.denominator for x in program.objective)
    col_cost = [int(x * cost_den) for x in program.objective]
    return _prepared(np.array(rows, dtype=object), col_cost, cost_den, scales)


def _prepare_int01(columns: np.ndarray, costs: Sequence[int]) -> _Prepared:
    """Prepared system for a 0/1 integer matrix given directly.

    Callers guarantee a nonnegative rhs at solve time."""
    if not ((columns == 0) | (columns == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return _prepared(columns, [int(c) for c in costs], 1, (1,) * columns.shape[0])


def _integer_rhs(rhs: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational right-hand side as integer numerators over one positive
    denominator, the form _Engine reads."""
    den = _lcm_of(v.denominator for v in rhs)
    return [v.numerator * (den // v.denominator) for v in rhs], den


class _Engine:
    """One solve over a prepared system: two-phase fraction-free simplex from
    the artificial basis, or dual simplex from a start state.  The right-hand
    side is rhs_num / den: integer numerators over one positive denominator."""

    def __init__(
        self,
        prep: _Prepared,
        rhs_num: Sequence[int],
        den: int,
        start: _Start | None = None,
    ):
        if len(rhs_num) != prep.m:
            raise DimensionMismatch(f"rhs has {len(rhs_num)} entries, expected {prep.m}")
        self.prep = prep
        self.m = prep.m
        self.n = prep.n
        self.a = prep.a_int
        self.den = den
        self.b_num = [v if k == 1 else v * k for v, k in zip(rhs_num, prep.row_scale)]
        if start is None:
            if any(v < 0 for v in self.b_num):
                raise ValueError("rhs negative after row scaling")
            self.basis = [prep.n + i for i in range(prep.m)]  # artificials first
            self.mat = np.eye(prep.m, dtype=prep.dtype)
            self.delta = 1
            self.xi = list(self.b_num)  # M @ b_num, exact Python ints
            self.inert = [False] * prep.m  # redundant rows, permanently zero
        else:
            self.basis = list(start.basis)
            self.mat = start.mat
            self.delta = start.delta
            self.inert = list(start.inert)
            self.xi = [
                sum(v * b for v, b in zip(row, self.b_num)) for row in start.mat.tolist()
            ]

    # -- arithmetic kernels ------------------------------------------------

    def _entering_w(self, j: int) -> np.ndarray:
        return self.mat @ self.a[:, j]

    def _pivot(self, j: int, p: int, w: np.ndarray) -> None:
        wp = int(w[p])
        if wp == 0:
            raise RuntimeError("zero pivot element")
        numer = wp * self.mat - w[:, None] * self.mat[p]
        if (numer % self.delta).any():
            raise RuntimeError("inexact division in basis update")
        new_mat = numer // self.delta
        new_mat[p] = self.mat[p]
        self.mat = new_mat
        xi_p = self.xi[p]
        for i, w_i in enumerate(w.tolist()):
            if i == p:
                continue
            q, r = divmod(wp * self.xi[i] - w_i * xi_p, self.delta)
            if r != 0:
                raise RuntimeError("inexact division in rhs update")
            self.xi[i] = q
        self.delta = wp
        self.basis[p] = j

    def _cost_basis(self, col_cost: Sequence[int] | None) -> np.ndarray:
        # col_cost None means phase 1: artificials cost 1, columns cost 0.
        out = []
        for jb in self.basis:
            if jb >= self.n:
                out.append(1 if col_cost is None else 0)
            else:
                out.append(0 if col_cost is None else col_cost[jb])
        return np.array(out, dtype=self.prep.dtype)

    def _reduced(self, col_cost: Sequence[int] | None) -> np.ndarray:
        """delta-scaled reduced costs of the structural columns."""
        yhat = self._cost_basis(col_cost) @ self.mat
        ata = self.a.T @ yhat
        if col_cost is None:
            return -ata
        if col_cost is self.prep.col_cost:
            cc = self.prep.cost_vec
        else:
            cc = np.array(col_cost, dtype=self.prep.dtype)
        return cc * self.delta - ata

    # -- simplex loop ------------------------------------------------------

    def _ratio_row(self, w: np.ndarray) -> int | None:
        """Bland leaving row: minimum ratio, ties by smallest basis index."""
        sgn = 1 if self.delta > 0 else -1
        best: tuple[int, int] | None = None  # (xi_pos, w_pos) of best row
        best_row = -1
        for i in range(self.m):
            if self.inert[i]:
                continue
            w_pos = sgn * int(w[i])
            if w_pos <= 0:
                continue
            xi_pos = sgn * self.xi[i]
            if best is None:
                better = True
            else:
                lhs = xi_pos * best[1]
                rhs = best[0] * w_pos
                better = lhs < rhs or (
                    lhs == rhs and self.basis[i] < self.basis[best_row]
                )
            if better:
                best = (xi_pos, w_pos)
                best_row = i
        return None if best is None else best_row

    def _loop(
        self, col_cost: Sequence[int] | None, allowed: np.ndarray | None = None
    ) -> tuple[str, int | None, np.ndarray | None]:
        """Pivot to optimality or unboundedness for one objective."""
        for iteration in range(_ITERATION_CAP):
            sgn = 1 if self.delta > 0 else -1
            reduced = self._reduced(col_cost) * sgn
            neg = np.asarray(reduced < 0)
            if allowed is not None:
                neg &= allowed
            candidates = np.flatnonzero(neg)
            if len(candidates) == 0:
                return "optimal", None, None
            if iteration < _BLAND_AFTER:
                # argmin takes the first minimum, so ties stay deterministic
                j = int(candidates[int(np.argmin(reduced[candidates]))])
            else:
                j = int(candidates[0])
            w = self._entering_w(j)
            p = self._ratio_row(w)
            if p is None:
                return "unbounded", j, w
            self._pivot(j, p, w)
        raise RuntimeError("simplex iteration cap exceeded")

    def _dual_ratio_column(self, row: np.ndarray, reduced: np.ndarray) -> int | None:
        """Entering column of the dual ratio test on a leaving row, or None
        when no column can enter.  row holds the sign-normalised -(M_r a_j),
        reduced the sign-normalised reduced costs; the least reduced/row over
        row > 0 wins, ties to the smallest index, compared exactly."""
        candidates = np.flatnonzero(row > 0)
        if len(candidates) == 0:
            return None
        red = reduced[candidates]
        den = row[candidates]
        # Start from the least reduced cost (a zero one is already a minimum);
        # each pass moves to a column of strictly smaller ratio, so it stops.
        k = int(np.argmin(red))
        while True:
            better = red * den[k] < red[k] * den
            if not better.any():
                break
            k = int(np.argmax(better))
        ties = red * den[k] == red[k] * den
        return int(candidates[int(np.argmax(ties))])

    def run_dual(self) -> int | None:
        """Dual simplex to optimality from a dual-feasible basis.  Returns None
        when optimal, else the row whose M row proves infeasibility."""
        for i in range(self.m):
            if self.inert[i] and self.xi[i] != 0:
                return i
        col_cost = self.prep.col_cost
        for iteration in range(_ITERATION_CAP):
            sgn = 1 if self.delta > 0 else -1
            negative = [
                i for i in range(self.m) if not self.inert[i] and sgn * self.xi[i] < 0
            ]
            if not negative:
                self.check_dual_feasible()
                return None
            if iteration < _BLAND_AFTER:
                r = min(negative, key=lambda i: sgn * self.xi[i])
            else:
                r = min(negative, key=lambda i: self.basis[i])
            row = -sgn * (self.mat[r] @ self.a)
            j = self._dual_ratio_column(row, self._reduced(col_cost) * sgn)
            if j is None:
                return r
            self._pivot(j, r, self._entering_w(j))
        raise RuntimeError("dual simplex iteration cap exceeded")

    def _drive_out_artificials(self) -> None:
        for p in range(self.m):
            if self.basis[p] < self.n:
                continue
            if self.xi[p] != 0:
                raise RuntimeError("artificial basic at nonzero value")
            row = self.mat[p] @ self.a
            pivots = np.flatnonzero(np.asarray(row != 0))
            if len(pivots) == 0:
                # Redundant constraint row: inert from here on.  Its M row
                # only ever gets rescaled, so it stays orthogonal to every
                # column and never blocks a pivot.
                self.inert[p] = True
                continue
            j = int(pivots[0])
            self._pivot(j, p, self._entering_w(j))

    # -- runs --------------------------------------------------------------

    def run_two_phase(self) -> tuple[str, int | None, np.ndarray | None]:
        status, _, _ = self._loop(None)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if any(self.xi[i] != 0 for i in range(self.m) if self.basis[i] >= self.n):
            return "infeasible", None, None
        self._drive_out_artificials()
        status, j, w = self._loop(self.prep.col_cost)
        if status == "optimal":
            self.check_dual_feasible()
        return status, j, w

    def reoptimize(self, col_cost: Sequence[int], allowed: np.ndarray) -> None:
        """Continue from an optimal state under a new objective, entering only
        through an allowed column set.  The caller guarantees boundedness."""
        status, _, _ = self._loop(col_cost, allowed)
        if status != "optimal":
            raise RuntimeError("restricted reoptimization became unbounded")

    def pivoted(self, j: int, p: int, w: np.ndarray) -> _Engine:
        """A copy of this state after one pivot; this state is unchanged,
        since _pivot replaces mat rather than writing into it."""
        other = copy.copy(self)
        other.basis = list(self.basis)
        other.xi = list(self.xi)
        other._pivot(j, p, w)
        return other

    # -- extraction --------------------------------------------------------

    def point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, jb in enumerate(self.basis):
            if jb < self.n:
                x[jb] = Fraction(self.xi[i], self.den * self.delta)
        return x

    def structural_basis(self) -> tuple[int, ...]:
        return tuple(sorted(jb for jb in self.basis if jb < self.n))

    def check_basic_state(self) -> None:
        """Integer re-substitution of the current basic solution."""
        for i in range(self.m):
            if self.xi[i] != 0 and (self.xi[i] < 0) != (self.delta < 0):
                raise RuntimeError("negative coordinate in solver state")
        basic = [i for i, jb in enumerate(self.basis) if jb < self.n]
        columns = self.a[:, [self.basis[i] for i in basic]].tolist()
        for r, row in enumerate(columns):
            total = sum(a * self.xi[i] for a, i in zip(row, basic))
            if total != self.b_num[r] * self.delta:
                raise RuntimeError("solver state fails re-substitution")

    def check_dual_feasible(self) -> None:
        """Integer check that every reduced cost is nonnegative."""
        sgn = 1 if self.delta > 0 else -1
        if (self._reduced(self.prep.col_cost) * sgn < 0).any():
            raise RuntimeError("optimal basis is not dual-feasible")

    def dual_vector(self, col_cost: Sequence[int] | None) -> tuple[Fraction, ...]:
        """y = c_B B^-1 in the program's own rows.  For the program's objective
        at an optimum, y.A <= objective and y.rhs = value; for the phase-1
        objective (None) at an infeasible end, y is a Farkas vector."""
        yhat = self._cost_basis(col_cost) @ self.mat
        den = self.delta * (1 if col_cost is None else self.prep.cost_den)
        return tuple(
            Fraction(int(yhat[i]) * self.prep.row_scale[i], den) for i in range(self.m)
        )

    def row_farkas_certificate(self, p: int) -> tuple[Fraction, ...]:
        """Row p of M, signed so that y.rhs > 0; valid as a Farkas vector when
        that row meets no column with the sign of xi_p (see run_dual)."""
        sign = 1 if self.xi[p] > 0 else -1
        return tuple(
            Fraction(sign * int(self.mat[p, i]) * self.prep.row_scale[i], abs(self.delta))
            for i in range(self.m)
        )

    def value(self) -> Fraction:
        """Objective value of the basic solution, from the basic columns."""
        total = sum(
            self.prep.col_cost[jb] * self.xi[i]
            for i, jb in enumerate(self.basis)
            if jb < self.n
        )
        return Fraction(total, self.den * self.delta * self.prep.cost_den)

    def ray_certificate(self, j: int, w: np.ndarray) -> tuple[Fraction, ...]:
        ray = [Fraction(0)] * self.n
        ray[j] = Fraction(1)
        for i, jb in enumerate(self.basis):
            if jb < self.n:
                ray[jb] = -Fraction(int(w[i]), self.delta)
        return tuple(ray)

    def zero_reduced_mask(self, col_cost: Sequence[int]) -> np.ndarray:
        return np.asarray(self._reduced(col_cost) == 0)


def _start_state(prep: _Prepared, rhs_num: Sequence[int], den: int) -> _Start:
    """The optimal basis of the two-phase solve on rhs_num / den, for warm
    starts."""
    engine = _Engine(prep, rhs_num, den)
    status, _, _ = engine.run_two_phase()
    if status != "optimal":
        raise ValueError(f"start right-hand side gives {status}, not optimal")
    engine.check_basic_state()
    mat = engine.mat.copy()
    mat.setflags(write=False)
    return _Start(
        basis=tuple(engine.basis),
        mat=mat,
        delta=engine.delta,
        inert=tuple(engine.inert),
    )


def _solve_prepared(
    prep: _Prepared, rhs_num: Sequence[int], den: int, start: _Start | None = None
) -> tuple[LpSolution, _Engine | None]:
    """Solve for the right-hand side rhs_num / den: two-phase from the
    artificial basis, or, given a start state, dual simplex from it (value,
    basis and dual certificate only)."""
    if start is not None:
        engine = _Engine(prep, rhs_num, den, start)
        row = engine.run_dual()
        if row is not None:
            solution = LpSolution(
                status="infeasible",
                value=None,
                point=(),
                basis=None,
                certificate=engine.row_farkas_certificate(row),
            )
            return solution, None
        engine.check_basic_state()
        solution = LpSolution(
            status="optimal",
            value=engine.value(),
            point=(),
            basis=engine.structural_basis(),
            certificate=engine.dual_vector(prep.col_cost),
        )
        return solution, engine
    engine = _Engine(prep, rhs_num, den)
    status, j, w = engine.run_two_phase()
    if status == "infeasible":
        solution = LpSolution(
            status="infeasible",
            value=None,
            point=(),
            basis=None,
            certificate=engine.dual_vector(None),
        )
        return solution, None
    if status == "unbounded":
        assert j is not None and w is not None
        solution = LpSolution(
            status="unbounded",
            value=None,
            point=(),
            basis=None,
            certificate=engine.ray_certificate(j, w),
        )
        return solution, None
    engine.check_basic_state()
    solution = LpSolution(
        status="optimal",
        value=engine.value(),
        point=tuple(engine.point()),
        basis=engine.structural_basis(),
    )
    return solution, engine


def solve(program: LinearProgram) -> LpSolution:
    """Exact two-phase simplex; deterministic in its input."""
    prep = _prepare_program(program)
    solution, _ = _solve_prepared(prep, *_integer_rhs(program.rhs))
    return solution


def _support(x: Sequence[Fraction]) -> frozenset[int]:
    return frozenset(j for j, v in enumerate(x) if v != 0)


def _alternative_from_engine(
    prep: _Prepared,
    engine: _Engine,
    opt_value: Fraction,
    known_support: frozenset[int],
) -> LpSolution | None:
    """Search the optimal face for a basic solution with different support.

    Stage 1: minimize the total weight on the known support, entering only
    through zero-reduced-cost columns (they span the optimal face).  Stage 2:
    single pivots along zero-reduced-cost columns from the resulting vertex,
    each on a copy of the engine.  Every vertex returned passes the integer
    re-substitution and value checks of its basic state.
    """
    face = engine.zero_reduced_mask(prep.col_cost)
    overlap_cost = [1 if j in known_support else 0 for j in range(prep.n)]
    engine.reoptimize(overlap_cost, face)
    _check_on_face(engine, opt_value)
    x = engine.point()
    if _support(x) != known_support:
        return _vertex(engine, opt_value, x)
    face = engine.zero_reduced_mask(prep.col_cost)
    basic = set(engine.basis)
    for j in np.flatnonzero(face):
        j = int(j)
        if j in basic:
            continue
        w = engine._entering_w(j)
        p = engine._ratio_row(w)
        if p is None or engine.xi[p] == 0:
            continue  # an unbounded edge, or a degenerate pivot to the same point
        moved = engine.pivoted(j, p, w)
        x = moved.point()
        if _support(x) == known_support:
            continue
        _check_on_face(moved, opt_value)
        return _vertex(moved, opt_value, x)
    return None


def _check_on_face(engine: _Engine, opt_value: Fraction) -> None:
    engine.check_basic_state()
    if engine.value() != opt_value:
        raise RuntimeError("optimal-face search left the optimal face")


def _vertex(engine: _Engine, value: Fraction, point: list[Fraction]) -> LpSolution:
    return LpSolution(
        status="optimal", value=value, point=tuple(point), basis=engine.structural_basis()
    )


def find_alternative_vertex(program: LinearProgram, known: LpSolution) -> LpSolution | None:
    """A second optimal basic solution whose support differs from known's,
    or None when the search over the optimal face finds none."""
    if known.status != "optimal":
        return None
    prep = _prepare_program(program)
    solution, engine = _solve_prepared(prep, *_integer_rhs(program.rhs))
    if solution.status != "optimal" or engine is None:
        return None
    assert solution.value is not None
    return _alternative_from_engine(prep, engine, solution.value, _support(known.point))
