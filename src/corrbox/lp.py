"""Exact rational linear programming.

Minimize c.x subject to A x = b, x >= 0, with every coefficient a Fraction.
The solver is a revised simplex with Bland's rule, run fraction-free: the
basis inverse is carried as an integer adjugate matrix M with determinant
delta, so every tableau quantity is an exact integer.  Every result is checked
in integers (below); a failed one carries its Farkas vector or ray as its
certificate, an optimal one certificate=None.

Arithmetic path, fixed at prepare time.  A system with 0/1 matrix entries, at
most 16 rows and integer costs of at most 2**20 (the deterministic-strategy
systems this package solves) runs on int64 numpy kernels; anything else runs
on arbitrary-precision Python integers.  The int64 path cannot overflow:
every basis matrix of such a system is 0/1 (structural or artificial
columns).  By Hadamard's bound, (k + 1)**((k + 1) / 2) / 2**k for a k x k
0/1 matrix, each adjugate entry (a 15 x 15 minor) is at most 2**17, and
delta, each w_i and each M_r a_j (16 x 16 determinants, by Cramer's rule)
are at most 438870 < 2**18.75.  So each product of the pivot kernel below,
delta' M_i and w_i M_p, is below 2**18.75 * 2**17 < 2**36.  Pricing sums at
most 16 terms per entry: |yhat| <= 16 * 2**20 * 2**17 = 2**41 for
yhat = c_B M, and |D| < 16 * 2**41 + 2**20 * 2**18.75 < 2**46 for
D = c delta - A^T yhat, partial sums included; each final D_k, a 17 x 17
determinant with one row of costs, is below 17 * 2**20 * 2**18.75 < 2**43.
Every kernel value stays far below 2**63.

Update rule per pivot (entering column j, pivot row p, w = M a_j, s the sign
of w_p):
    delta' = |w_p|,  M'_p = s M_p,    M'_i = (|w_p| M_i - s w_i M_p) / delta
                     xi'_p = s xi_p,  xi'_i = (|w_p| xi_i - s w_i xi_p) / delta
The sign s keeps delta positive: negating M, delta and xi together changes
no ratio, so every sign test reads the integers directly.  Each division is
exact (Sylvester's identity: the entries of M and xi are minors of the basis
matrix bordered by a column); the solver asserts zero remainders on both,
which doubles as an overflow trip-wire.  At delta = 1 the divisions are
skipped, since dividing by 1 changes nothing and leaves no remainder to
test: that is every pivot of the chsh16 program measured on hull boxes, and
about a sixth of the full256 program's on general boxes.  An xi row with
w_i = 0 is unchanged when |w_p| = delta, and is skipped.

Pricing.  No reduced-cost row is carried between pivots: each iteration
prices from the basis, yhat = c_B M and D = c delta - A^T yhat for the
running loop's objective, whose basic costs c_B _pivot updates one entry at
a time.  No division enters, and D depends on the basis alone.  A loop
prices only the columns that may enter, its candidate list: the presolve's
free columns (below), every column when it fixes none, within the mask a
reoptimization passes; partial pricing in the sense of Maros (Computational
Techniques of the Simplex Method, 2003).  The list is always an ascending
index array; its matrix columns are gathered once per engine when the
presolve fixes columns, and once per loop under a mask, so no pricing call
gathers columns.  The least index still wins every tie under Dantzig's rule
and Bland's, and every pivot is the one that pricing all columns and zeroing
the others would take.
The checks of a result (the basis-dual check, the lifted certificate below,
the Farkas vector) still price every column.

The engine reads the right-hand side b as integer numerators over one
positive denominator (a box's own form; solve converts a LinearProgram's
Fractions once).  Every result is checked in integers before a Fraction is
built, and leaves through one of two exits.  _vertex re-substitutes xi into
A x = b over each basic column's nonzero entries (a table built with the
prepared system) and reads value() as the integer costs of the basic
columns over one denominator.  _optimal, the end of the two-phase solve and
of the reoptimization over its optimal face (cost.py's search for a second
decomposition), first recomputes every reduced cost and requires it
nonnegative; _feasible, phase 1 alone, certifies no optimum and serves a
caller that has proven every feasible point optimal by other means.
_failed takes a Farkas vector y, checked as delta y.A <= 0 and delta y.b > 0
in the row-scaled integers, or an integer ray, checked for A ray = 0,
ray >= 0 and objective.ray < 0.

Forcing-row presolve.  An engine presolves when it is built, from the zero
rows Z: rows with b_i = 0 whose row-scaled entries are all >= 0.  Since
x >= 0, every column with an entry on such a row is zero at every feasible
point.  When the columns left free are linearly independent (an exact
integer rank: at most m of them), the program has at most one feasible
point, so no pivot order can change the vertex's point or its support, and
the optimal-face search finds no second support either way; phase 1, the
drive-out, phase 2 and that search's reoptimization then price, search and
enter free columns only.  A deterministic box, whose 12 zero cells fix all
but its own strategy, takes one pivot, and its drive-out reads one column
per artificial row, not 256.  When the free columns are dependent the
presolve fixes nothing and every column is free: the pivot order decides the
printed decomposition there, and fixing columns could change it.  The
certificates still hold over every column, fixed ones included.  At the
restricted end a fixed column j may have D_j < 0; with
s_j = sum over Z of a_ij >= 1 (the column sums the presolve computed) and
K = max ceil(-D_j / s_j) over the fixed columns, the dual vector
yhat - K 1_Z keeps yhat.b (b vanishes on Z) and every free column's reduced
cost (free columns vanish on Z), and makes D_j + K s_j >= 0 on every fixed
one; with none fixed, K = 0.  A phase-1 Farkas vector is lifted the same
way, to yhat.a_j <= 0.  Both lifted vectors are checked over every column in
integers, so a free column with a negative reduced cost still fails the
check.  On the int64 path K < 2**43 and s_j <= 16, so a lifted reduced cost
stays below 17 * 2**43 < 2**48.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

_ITERATION_CAP = 50000
# Dantzig's rule (the most negative reduced cost, the first index on ties)
# for this many pivots, then Bland's rule, whose first-index selection
# provably terminates from any basis.
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
    """status is one of optimal / infeasible / unbounded, or feasible from
    _feasible: a checked point, optimal or not.

    value and basis are present only when optimal or feasible.  certificate
    carries a Farkas vector (infeasible: y.A <= 0 and y.rhs > 0) or a ray
    (unbounded: A ray = 0, ray >= 0, objective.ray < 0), each checked in
    integers before it is returned.
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
    col_cost: list[int]  # Python integers: value() multiplies them by unbounded xi
    cost_vec: np.ndarray  # col_cost in the path's dtype, the objective the loops price
    cost_den: int
    row_scale: tuple[int, ...]
    dtype: type  # np.int64 on the int64 path, else object (Python integers)
    col_rows: tuple[tuple[tuple[int, int], ...], ...]  # each column's (row, entry) != 0
    nonneg_rows: tuple[bool, ...]  # rows whose row-scaled entries are all >= 0

    @property
    def int_mode(self) -> bool:
        return self.dtype is np.int64


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
    col_rows = tuple(
        tuple((i, v) for i, v in enumerate(column) if v) for column in a.T.tolist()
    )
    return _Prepared(
        m=a.shape[0],
        n=a.shape[1],
        a_int=a.astype(dtype),
        col_cost=col_cost,
        cost_vec=np.array(col_cost, dtype=dtype),
        cost_den=cost_den,
        row_scale=tuple(row_scale),
        dtype=dtype,
        col_rows=col_rows,
        nonneg_rows=tuple((a >= 0).all(axis=1).tolist()),
    )


def _prepare_program(program: LinearProgram) -> _Prepared:
    rows = []
    scales = []
    for i, row in enumerate(program.constraint_matrix):
        k = math.lcm(*(x.denominator for x in row))
        sign = -1 if program.rhs[i] < 0 else 1
        scales.append(sign * k)
        rows.append([sign * int(x * k) for x in row])
    cost_den = math.lcm(*(x.denominator for x in program.objective))
    col_cost = [int(x * cost_den) for x in program.objective]
    return _prepared(np.array(rows, dtype=object), col_cost, cost_den, scales)


def _prepare_int01(columns: np.ndarray, costs: Sequence[int]) -> _Prepared:
    """Prepared system for a 0/1 integer matrix given directly.

    Callers guarantee a nonnegative rhs at solve time."""
    if not ((columns == 0) | (columns == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return _prepared(columns, [int(c) for c in costs], 1, (1,) * columns.shape[0])


def _independent(vectors: list[list[int]]) -> bool:
    """Whether integer vectors are linearly independent, by exact
    fraction-free (Bareiss) elimination: each division is exact."""
    rows = list(vectors)
    prev = 1
    for r, row in enumerate(rows):
        c = next((c for c, v in enumerate(row) if v), None)
        if c is None:
            return False
        pivot = row[c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], row)]
        prev = pivot
    return True


def _integer_rhs(rhs: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational right-hand side as integer numerators over one positive
    denominator, the form _Engine reads."""
    den = math.lcm(*(v.denominator for v in rhs))
    return [v.numerator * (den // v.denominator) for v in rhs], den


class _Engine:
    """One fraction-free simplex solve over a prepared system, from the
    artificial basis: phase 1 alone, or both phases.  The right-hand side is
    rhs_num / den: integer numerators over one positive denominator.  delta
    stays positive, so every sign test reads the integers directly.  The
    engine presolves when it is built, which fixes its candidate list."""

    def __init__(self, prep: _Prepared, rhs_num: Sequence[int], den: int):
        if len(rhs_num) != prep.m:
            raise DimensionMismatch(f"rhs has {len(rhs_num)} entries, expected {prep.m}")
        self.prep = prep
        self.m = prep.m
        self.n = prep.n
        self.a = prep.a_int
        self.den = den
        self.b_num = [v if k == 1 else v * k for v, k in zip(rhs_num, prep.row_scale)]
        if any(v < 0 for v in self.b_num):
            raise ValueError("rhs negative after row scaling")
        # The running objective (None: phase 1) and its basic costs c_B,
        # which _pivot keeps one entry at a time.
        self.objective: np.ndarray | None = None
        self.cost_b = np.ones(prep.m, dtype=prep.dtype)
        self.basis = [prep.n + i for i in range(prep.m)]  # artificials first
        self.mat = np.eye(prep.m, dtype=prep.dtype)
        self.delta = 1
        self.xi = list(self.b_num)  # M @ b_num, exact Python ints
        self.inert = [False] * prep.m  # redundant rows, permanently zero
        self.presolve()

    # -- arithmetic kernels ------------------------------------------------

    def _entering_w(self, j: int) -> np.ndarray:
        return self.mat @ self.a[:, j]

    def _pivot(self, j: int, p: int, w: np.ndarray) -> None:
        """Pivot column j into row p, where w = M a_j.  A negative w_p negates
        the new M and xi together, which keeps delta positive."""
        w_list = w.tolist()
        wp = w_list[p]
        if wp == 0:
            raise RuntimeError("zero pivot element")
        sign = 1 if wp > 0 else -1
        new_delta = sign * wp
        delta = self.delta
        mat_p = self.mat[p] if sign > 0 else -self.mat[p]
        numer = new_delta * self.mat - w[:, None] * mat_p
        if delta != 1:
            if np.count_nonzero(numer % delta):
                raise RuntimeError("inexact division in basis update")
            numer //= delta
        numer[p] = mat_p
        self.mat = numer
        xi = self.xi
        xi_p = sign * xi[p]
        for i, w_i in enumerate(w_list):
            if i == p or (w_i == 0 and new_delta == delta):
                continue
            q = new_delta * xi[i] - w_i * xi_p
            if delta != 1:
                q, r = divmod(q, delta)
                if r != 0:
                    raise RuntimeError("inexact division in rhs update")
            xi[i] = q
        xi[p] = xi_p
        self.delta = new_delta
        self.basis[p] = j
        self.cost_b[p] = 0 if self.objective is None else self.objective[j]

    def _cost_basis(self, col_cost: np.ndarray | None) -> np.ndarray:
        # col_cost None means phase 1: artificials cost 1, columns cost 0.
        out = []
        for jb in self.basis:
            if jb >= self.n:
                out.append(1 if col_cost is None else 0)
            else:
                out.append(0 if col_cost is None else col_cost[jb])
        return np.array(out, dtype=self.prep.dtype)

    def _reduced(
        self, costs: np.ndarray | None, a: np.ndarray, yhat: np.ndarray | None = None
    ) -> np.ndarray:
        """delta-scaled reduced costs of the columns a, whose costs are costs
        (None: phase 1, every column at 0): costs delta - a^T yhat, against
        yhat = c_B M with the c_B carried for the running objective, or
        against a given delta-scaled dual vector."""
        if yhat is None:
            yhat = self.cost_b @ self.mat
        ata = yhat @ a
        if costs is None:
            return -ata
        return costs * self.delta - ata

    # -- simplex loop ------------------------------------------------------

    def _ratio_row(self, w: np.ndarray) -> int | None:
        """Bland leaving row: minimum ratio, ties by smallest basis index."""
        xi, basis, inert = self.xi, self.basis, self.inert
        w = w.tolist()
        best = -1
        for i, w_i in enumerate(w):
            if w_i <= 0 or inert[i]:
                continue
            if best < 0:
                best = i
                continue
            lhs = xi[i] * w[best]
            rhs = xi[best] * w_i
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        return None if best < 0 else best

    def _loop(
        self, col_cost: np.ndarray | None, allowed: np.ndarray | None = None
    ) -> tuple[str, int | None, np.ndarray | None]:
        """Pivot to optimality or unboundedness for one objective, pricing
        every iteration from the basis, over the columns that may enter: the
        free ones, within the mask allowed when one is given."""
        cols, a = self.free, self.a_free
        if allowed is not None:
            cols = cols[allowed[cols]]
            a = self.a[:, cols]
        self.objective, self.cost_b = col_cost, self._cost_basis(col_cost)
        if not len(cols):
            return "optimal", None, None
        costs = None if col_cost is None else col_cost[cols]
        for iteration in range(_ITERATION_CAP):
            # through the method, which TestTwoPhaseDualCheck replaces
            reduced = self._reduced(costs, a)
            if iteration < _BLAND_AFTER:
                # argmin takes the first minimum and cols ascend, so ties go
                # to the least column index
                k = int(reduced.argmin())
                entering = reduced[k] < 0
            else:
                negative = reduced < 0
                k = int(negative.argmax())
                entering = negative[k]
            if not entering:
                return "optimal", None, None
            j = int(cols[k])
            w = self._entering_w(j)
            p = self._ratio_row(w)
            if p is None:
                return "unbounded", j, w
            self._pivot(j, p, w)
        raise RuntimeError("simplex iteration cap exceeded")

    def _drive_out_artificials(self) -> None:
        for p in range(self.m):
            if self.basis[p] < self.n:
                continue
            if self.xi[p] != 0:
                raise RuntimeError("artificial basic at nonzero value")
            pivots = (self.mat[p] @ self.a_free).nonzero()[0]
            if not len(pivots):
                # Redundant constraint row: inert from here on.  Its M row
                # only ever gets rescaled, so it stays orthogonal to every
                # column that may enter and never blocks a pivot.
                self.inert[p] = True
                continue
            j = int(self.free[pivots[0]])
            self._pivot(j, p, self._entering_w(j))

    # -- runs --------------------------------------------------------------

    def presolve(self) -> None:
        """Fix at zero every column with an entry on a zero row (b_i = 0, all
        row-scaled entries >= 0), when the columns left free are linearly
        independent; otherwise fix none (module docstring).  It leaves free,
        the ascending indices of the columns that may enter (every column
        when none is fixed), a_free, their columns of the matrix (the whole
        matrix when none is fixed), and for the certificates the indicator
        1_Z of the zero rows and each column's sum s_j over them (all zero
        when none is fixed)."""
        dtype = self.prep.dtype
        self.free, self.a_free = np.arange(self.n), self.a
        self.zero_rows, self.sums = np.zeros(self.m, dtype), np.zeros(self.n, dtype)
        zero = [int(nonneg and b == 0) for nonneg, b in zip(self.prep.nonneg_rows, self.b_num)]
        if not any(zero):
            return
        zero_rows = np.array(zero, dtype=dtype)
        sums = zero_rows @ self.a
        free = sums == 0
        if free.all() or np.count_nonzero(free) > self.m:
            return
        if _independent(self.a.T[free].tolist()):
            self.free, self.a_free = free.nonzero()[0], self.a[:, free]
            self.zero_rows, self.sums = zero_rows, sums

    def run_phase1(self) -> bool:
        """Phase 1 from the artificial basis: whether it ends feasible, with
        every artificial still basic at zero."""
        status, _, _ = self._loop(None)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        return not any(self.xi[i] for i in range(self.m) if self.basis[i] >= self.n)

    def run_two_phase(self) -> tuple[str, int | None, np.ndarray | None]:
        """Phase 1, then phase 2 under the program's objective: the status,
        with the entering column j and w = M a_j of an unbounded end."""
        if not self.run_phase1():
            return "infeasible", None, None
        self._drive_out_artificials()
        return self._loop(self.prep.cost_vec)

    def reoptimize(self, col_cost: Sequence[int], allowed: np.ndarray) -> None:
        """Continue from an optimal state under a new objective, entering only
        through an allowed column set.  The caller guarantees boundedness."""
        status, _, _ = self._loop(np.array(col_cost, dtype=self.prep.dtype), allowed)
        if status != "optimal":
            raise RuntimeError("restricted reoptimization became unbounded")

    # -- extraction --------------------------------------------------------

    def point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, jb in enumerate(self.basis):
            if jb < self.n:
                x[jb] = Fraction(self.xi[i], self.den * self.delta)
        return x

    def support(self) -> frozenset[int]:
        """The structural columns at a nonzero value."""
        return frozenset(
            jb for jb, v in zip(self.basis, self.xi) if jb < self.n and v != 0
        )

    def structural_basis(self) -> tuple[int, ...]:
        return tuple(sorted(jb for jb in self.basis if jb < self.n))

    def check_basic_state(self) -> None:
        """Integer re-substitution of the current basic solution, over each
        basic column's nonzero entries."""
        if self.delta <= 0 or min(self.xi) < 0:
            raise RuntimeError("negative coordinate in solver state")
        total = [0] * self.m
        col_rows = self.prep.col_rows
        for jb, v in zip(self.basis, self.xi):
            if jb < self.n and v:
                for r, a in col_rows[jb]:
                    total[r] += a * v
        if any(t != b * self.delta for t, b in zip(total, self.b_num)):
            raise RuntimeError("solver state fails re-substitution")

    def _certificate_dual(self, col_cost: np.ndarray | None) -> np.ndarray:
        """yhat = c_B M, the delta-scaled dual vector of the basis in the
        row-scaled integers (col_cost None: phase 1), lifted to yhat - K 1_Z
        with the least K >= 0 that makes every fixed column's reduced cost
        D_j + K s_j nonnegative; yhat.b and every free column's reduced cost
        are unchanged, since both vanish on Z.  With none fixed, K = 0."""
        yhat = self._cost_basis(col_cost) @ self.mat
        fixed = self.sums.nonzero()[0]
        sums = self.sums[fixed]
        costs = None if col_cost is None else col_cost[fixed]
        short = (sums - 1 - self._reduced(costs, self.a[:, fixed], yhat)) // sums
        return yhat - max([0, *short.tolist()]) * self.zero_rows

    def check_dual_feasible(self) -> None:
        """Integer check that every reduced cost against the certificate's
        dual vector is nonnegative."""
        col_cost = self.prep.cost_vec
        reduced = self._reduced(col_cost, self.a, self._certificate_dual(col_cost))
        if np.count_nonzero(reduced < 0):
            raise RuntimeError("optimal basis is not dual-feasible")

    def farkas_certificate(self) -> tuple[Fraction, ...]:
        """A Farkas vector y in the program's own rows: the phase-1 duals at
        an infeasible end.  yhat = delta y is checked first in the row-scaled
        integers: yhat.A_int <= 0 and yhat.b > 0."""
        yhat = self._certificate_dual(None)
        ys = yhat.tolist()
        yhat_b = sum(map(operator.mul, ys, self.b_num))
        if np.count_nonzero(yhat @ self.a > 0) or yhat_b <= 0:
            raise RuntimeError("Farkas certificate fails its integer check")
        return tuple(Fraction(v * k, self.delta) for v, k in zip(ys, self.prep.row_scale))

    def value(self) -> Fraction:
        """Objective value of the basic solution, from the basic columns."""
        total = sum(
            self.prep.col_cost[jb] * self.xi[i]
            for i, jb in enumerate(self.basis)
            if jb < self.n
        )
        return Fraction(total, self.den * self.delta * self.prep.cost_den)

    def ray_certificate(self, j: int, w: np.ndarray) -> tuple[Fraction, ...]:
        """The ray of column j entering with w = M a_j and no leaving row.
        Its delta-scaled integers (delta at j, -w_i at each basic column)
        are checked first: A ray = 0, ray >= 0 and objective.ray < 0."""
        ray = [0] * self.n
        ray[j] = self.delta
        for jb, w_i in zip(self.basis, w.tolist()):
            if jb < self.n:
                ray[jb] = -w_i
        if (
            np.count_nonzero(self.a @ np.array(ray, dtype=self.prep.dtype))
            or min(ray) < 0
            or sum(map(operator.mul, self.prep.col_cost, ray)) >= 0
        ):
            raise RuntimeError("unbounded ray fails its integer check")
        return tuple(Fraction(v, self.delta) for v in ray)

    def zero_reduced_mask(self) -> np.ndarray:
        """The columns that may enter at reduced cost zero, for the running
        objective, the program's at the end of run_two_phase."""
        face = np.zeros(self.n, dtype=bool)
        face[self.free] = self._reduced(self.prep.cost_vec[self.free], self.a_free) == 0
        return face


def _vertex(engine: _Engine, status: str) -> LpSolution:
    """The one exit at a vertex: its basic state re-substituted in integers,
    then its value, point and basis."""
    engine.check_basic_state()
    return LpSolution(
        status=status,
        value=engine.value(),
        point=tuple(engine.point()),
        basis=engine.structural_basis(),
    )


def _optimal(engine: _Engine, *, value: Fraction | None = None) -> LpSolution:
    """An optimal vertex: every reduced cost checked nonnegative in integers,
    and the value equal to value when one is given."""
    engine.check_dual_feasible()
    solution = _vertex(engine, "optimal")
    if value is not None and solution.value != value:
        raise RuntimeError("optimal-face search left the optimal face")
    return solution


def _failed(status: str, certificate: tuple[Fraction, ...]) -> LpSolution:
    """The one exit of an infeasible or unbounded solve, with its certificate."""
    return LpSolution(status, value=None, point=(), basis=None, certificate=certificate)


def _solve_prepared(
    prep: _Prepared, rhs_num: Sequence[int], den: int
) -> tuple[LpSolution, _Engine | None]:
    """The two-phase solve for the right-hand side rhs_num / den."""
    engine = _Engine(prep, rhs_num, den)
    status, j, w = engine.run_two_phase()
    if status == "infeasible":
        return _failed(status, engine.farkas_certificate()), None
    if status == "unbounded":
        return _failed(status, engine.ray_certificate(j, w)), None
    return _optimal(engine), engine


def _feasible(prep: _Prepared, rhs_num: Sequence[int], den: int) -> LpSolution:
    """Phase 1 alone, for the right-hand side rhs_num / den: a feasible end
    leaves through _vertex with status "feasible", an infeasible one through
    _failed.  It certifies no optimum: no drive-out, phase 2 or basis-dual
    check runs."""
    engine = _Engine(prep, rhs_num, den)
    if not engine.run_phase1():
        return _failed("infeasible", engine.farkas_certificate())
    return _vertex(engine, "feasible")


def solve(program: LinearProgram) -> LpSolution:
    """Exact two-phase simplex; deterministic in its input."""
    prep = _prepare_program(program)
    solution, _ = _solve_prepared(prep, *_integer_rhs(program.rhs))
    return solution
