from __future__ import annotations

import contextlib
import copy
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import corrbox.lp as lp
from corrbox.boxes import box_to_json_obj, enumerate_deterministic, mix_ints
from corrbox.cli import main
from corrbox.cost import NotInHull, _system_for, optimal_decompositions
from corrbox.generators import FamilySpec, canonical, draw, no_signaling_vertices
from corrbox.lp import DimensionMismatch, LinearProgram, LpSolution, solve

from _reference_lp import solve_reference

F = Fraction


def program(rows, rhs, cost) -> LinearProgram:
    return LinearProgram(
        constraint_matrix=tuple(tuple(F(x) for x in row) for row in rows),
        rhs=tuple(F(x) for x in rhs),
        objective=tuple(F(x) for x in cost),
    )


def residual(prog: LinearProgram, point) -> list[Fraction]:
    out = []
    for i, row in enumerate(prog.constraint_matrix):
        out.append(sum((row[j] * point[j] for j in range(len(point))), F(0)) - prog.rhs[i])
    return out


def dual_from_basis(prog: LinearProgram, basis) -> list[Fraction] | None:
    """Solve B^T y = c_B by Gaussian elimination; None when B is not square."""
    m = len(prog.constraint_matrix)
    if len(basis) != m:
        return None
    mat = [[prog.constraint_matrix[i][j] for i in range(m)] for j in basis]
    vec = [prog.objective[j] for j in basis]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if pivot_row is None:
            return None
        mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
        vec[col], vec[pivot_row] = vec[pivot_row], vec[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        vec[col] = vec[col] * inv
        for r in range(m):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
                vec[r] = vec[r] - factor * vec[col]
    return vec


def check_certificate(prog: LinearProgram, got: LpSolution) -> None:
    """Farkas vector when infeasible (y.A <= 0, y.rhs > 0); ray when
    unbounded (A ray = 0, ray >= 0, objective.ray < 0)."""
    n = len(prog.objective)
    m = len(prog.rhs)
    if got.status == "infeasible":
        y = got.certificate
        assert y is not None
        for j in range(n):
            column_value = sum(y[i] * prog.constraint_matrix[i][j] for i in range(m))
            assert column_value <= 0, f"y.A[{j}] = {column_value}"
        assert sum(y[i] * prog.rhs[i] for i in range(m)) > 0
    elif got.status == "unbounded":
        ray = got.certificate
        assert ray is not None
        assert all(x >= 0 for x in ray)
        for i in range(m):
            row_value = sum(prog.constraint_matrix[i][j] * ray[j] for j in range(n))
            assert row_value == 0, f"A.ray[{i}] = {row_value}"
        assert sum(prog.objective[j] * ray[j] for j in range(n)) < 0


# The fixed suite: (label, rows, rhs, cost, expected status).
SUITE = [
    ("single", [[1]], [1], [1], "optimal"),
    ("diagonal", [[1, 0], [0, 1]], [1, 2], [1, 1], "optimal"),
    ("slack_choice", [[1, 1, 1]], [1], [3, 1, 2], "optimal"),
    ("two_rows", [[1, 1, 0], [0, 1, 1]], [2, 1], [1, 2, 3], "optimal"),
    ("fractional", [[F(1, 2), F(1, 3)]], [F(1, 6)], [1, 1], "optimal"),
    ("negative_rhs", [[-1, 0], [0, 1]], [-3, 1], [2, 5], "optimal"),
    ("degenerate", [[1, 1, 0], [1, 0, 1]], [1, 1], [1, 1, 1], "optimal"),
    ("redundant_row", [[1, 1], [1, 1]], [1, 1], [2, 3], "optimal"),
    ("zero_row", [[1, 1], [0, 0]], [1, 0], [1, 4], "optimal"),
    ("zero_objective", [[1, 2, 3]], [6], [0, 0, 0], "optimal"),
    (
        "assignment",
        [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [1, 0, 1, 0, 1, 0],
        ],
        [1, 1, 1, 1],
        [1, 9, 2, 3, 7, 2],
        "optimal",
    ),
    ("alternate_optima", [[1, 1]], [1], [5, 5], "optimal"),
    ("big_numbers", [[10**25, 1]], [10**25], [1, 1], "optimal"),
    ("big_costs", [[1, 1]], [1], [2**40, 2**41], "optimal"),
    ("mixed_signs", [[1, -1], [1, 1]], [0, 2], [1, 1], "optimal"),
    ("infeasible_pair", [[1, 1], [1, 1]], [1, 2], [0, 0], "infeasible"),
    ("infeasible_negative", [[1]], [-1], [1], "infeasible"),
    ("infeasible_zero_row", [[0, 0]], [5], [1, 1], "infeasible"),
    ("unbounded_line", [[1, -1]], [0], [-1, 0], "unbounded"),
    ("unbounded_cone", [[1, -1, 0], [0, 1, -1]], [1, 0], [0, 0, -1], "unbounded"),
]


class TestFixedSuite:
    def test_suite_has_twenty_programs(self):
        assert len(SUITE) == 20

    @pytest.mark.parametrize("label,rows,rhs,cost,expected", SUITE, ids=[t[0] for t in SUITE])
    def test_status_and_value_match_reference(self, label, rows, rhs, cost, expected):
        prog = program(rows, rhs, cost)
        got = solve(prog)
        ref_status, ref_value, _ = solve_reference(
            [list(r) for r in prog.constraint_matrix],
            list(prog.rhs),
            list(prog.objective),
        )
        assert got.status == expected, f"{label}: {got.status}"
        assert ref_status == expected, f"{label}: oracle disagrees ({ref_status})"
        if expected == "optimal":
            assert got.value == ref_value, f"{label}: {got.value} != {ref_value}"

    @pytest.mark.parametrize("label,rows,rhs,cost,expected", SUITE, ids=[t[0] for t in SUITE])
    def test_exact_feasibility_of_optimal_points(self, label, rows, rhs, cost, expected):
        prog = program(rows, rhs, cost)
        got = solve(prog)
        if got.status != "optimal":
            return
        assert all(x >= 0 for x in got.point), label
        assert all(r == 0 for r in residual(prog, got.point)), label

    @pytest.mark.parametrize("label,rows,rhs,cost,expected", SUITE, ids=[t[0] for t in SUITE])
    def test_deterministic_resolve(self, label, rows, rhs, cost, expected):
        prog = program(rows, rhs, cost)
        assert solve(prog) == solve(prog), label

    @pytest.mark.parametrize("label,rows,rhs,cost,expected", SUITE, ids=[t[0] for t in SUITE])
    def test_certificates(self, label, rows, rhs, cost, expected):
        prog = program(rows, rhs, cost)
        check_certificate(prog, solve(prog))

    @pytest.mark.parametrize("label,rows,rhs,cost,expected", SUITE, ids=[t[0] for t in SUITE])
    def test_reduced_costs_nonnegative_at_optimum(self, label, rows, rhs, cost, expected):
        prog = program(rows, rhs, cost)
        got = solve(prog)
        if got.status != "optimal":
            return
        y = dual_from_basis(prog, got.basis)
        if y is None:
            # degenerate basis smaller than m; optimality already covered by
            # the value comparison against the oracle
            return
        n = len(prog.objective)
        m = len(prog.rhs)
        for j in range(n):
            reduced = prog.objective[j] - sum(
                y[i] * prog.constraint_matrix[i][j] for i in range(m)
            )
            assert reduced >= 0, f"{label}: reduced cost of column {j} is {reduced}"
        assert sum(y[i] * prog.rhs[i] for i in range(m)) == got.value, label


class TestValidation:
    def test_shape_mismatches(self):
        with pytest.raises(DimensionMismatch):
            program([[1, 2], [3]], [1, 1], [1, 1])
        with pytest.raises(DimensionMismatch):
            program([[1, 2]], [1, 1], [1, 1])
        with pytest.raises(DimensionMismatch):
            program([[1, 2]], [1], [1])
        with pytest.raises(DimensionMismatch):
            program([], [], [])


def _with_seeded_examples(test):
    """The seeded programs of the first two randomized oracle checks as
    explicit examples.  60 programs (random.Random(4242): at most 3 rows and
    5 columns, entries, rhs and costs in -3..3).  120 more (random.Random(5151):
    at most 4 rows and 6 columns, alternately general entries and costs in
    -3..3 and 0/1 entries with costs in 0..3), each with an rhs in -3..3 the
    oracle solves to optimality, and each also solved on a second rhs."""
    rng = random.Random(4242)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        cost = [rng.randint(-3, 3) for _ in range(n)]
        test = example(("general", rows, rhs, cost))(test)
    rng = random.Random(5151)
    trials = 0
    while trials < 120:
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        zero_one = trials % 2 == 1
        if zero_one:
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
            cost = [rng.randint(0, 3) for _ in range(n)]
        else:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            cost = [rng.randint(-3, 3) for _ in range(n)]
        first_rhs = [rng.randint(-3, 3) for _ in range(m)]
        if solve_reference(rows, first_rhs, cost)[0] != "optimal":
            continue
        trials += 1
        for rhs in (first_rhs, [rng.randint(-3, 3) for _ in range(m)]):
            # a negative rhs flips its row off the int64 path
            kind = "zero_one" if zero_one and min(rhs) >= 0 else "general"
            test = example((kind, rows, rhs, cost))(test)
    return test


_SMALL = st.integers(-3, 3)


def _vectors(elements, size: int):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def _general_programs(draw):
    """(kind, rows, rhs, cost) with general integers: the object path."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rows = draw(_vectors(_vectors(_SMALL, n), m))
    return "general", rows, draw(_vectors(_SMALL, m)), draw(_vectors(_SMALL, n))


@st.composite
def _zero_one_programs(draw):
    """(kind, rows, rhs, cost) for a 0/1 matrix whose rows and
    columns are picked, with repeats, from a small base matrix: repeated rows
    go inert, repeated columns and small costs tie in pricing.  A nonnegative
    rhs keeps every row unflipped, so the program takes the int64 path."""
    base_rows = draw(st.integers(1, 3))
    base = draw(_vectors(_vectors(st.integers(0, 1), draw(st.integers(1, 4))), base_rows))
    picks_r = draw(st.lists(st.integers(0, base_rows - 1), min_size=1, max_size=5))
    picks_c = draw(st.lists(st.integers(0, len(base[0]) - 1), min_size=1, max_size=7))
    rows = [[base[r][c] for c in picks_c] for r in picks_r]
    m, n = len(rows), len(picks_c)
    rhs = draw(_vectors(st.integers(0, 3), m))
    cost = draw(_vectors(st.integers(-1, 2), n))
    return "zero_one", rows, rhs, cost


_PROGRAMS = {"general": _general_programs(), "zero_one": _zero_one_programs()}
# find() stops at the first example that meets its condition, unshrunk.
_FIRST_EXAMPLE = settings(phases=[Phase.generate])


def _path_and_status(case) -> tuple[str, str]:
    """("int64" or "object", the solve's status)."""
    _, rows, rhs, cost = case
    prog = program(rows, rhs, cost)
    path = "int64" if lp._prepare_program(prog).int_mode else "object"
    return path, solve(prog).status


def _has_inert_row(case) -> bool:
    _, rows, rhs, cost = case
    prog = program(rows, rhs, cost)
    engine = lp._Engine(lp._prepare_program(prog), *lp._integer_rhs(prog.rhs))
    engine.run_two_phase()
    return any(engine.inert)


class TestAgainstReference:
    """lp.solve against the dense-tableau oracle, on both arithmetic paths."""

    @settings(max_examples=300)
    @given(st.one_of(_general_programs(), _zero_one_programs()))
    @_with_seeded_examples
    def test_two_phase_solve_matches_reference(self, case):
        kind, rows, rhs, cost = case
        prog = program(rows, rhs, cost)
        if kind == "zero_one":
            assert lp._prepare_program(prog).int_mode
        got = solve(prog)
        ref_status, ref_value, _ = solve_reference(rows, rhs, cost)
        assert got.status == ref_status
        check_certificate(prog, got)
        if got.status != "optimal":
            return
        assert got.value == ref_value
        assert all(x >= 0 for x in got.point)
        assert all(r == 0 for r in residual(prog, got.point))

    @pytest.mark.parametrize("kind,path", [("general", "object"), ("zero_one", "int64")])
    @pytest.mark.parametrize("status", ["optimal", "infeasible", "unbounded"])
    def test_every_status_occurs_on_both_paths(self, kind, path, status):
        find(
            _PROGRAMS[kind],
            lambda case: _path_and_status(case) == (path, status),
            settings=_FIRST_EXAMPLE,
        )

    def test_zero_one_programs_reach_inert_rows(self):
        find(_PROGRAMS["zero_one"], _has_inert_row, settings=_FIRST_EXAMPLE)


class TestEscalation:
    def test_int_mode_selection(self):
        zero_one = lp._prepare_program(program([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 2, 3]))
        assert zero_one.int_mode
        big_cost = lp._prepare_program(program([[1, 0], [0, 1]], [1, 1], [2**30, 1]))
        assert not big_cost.int_mode
        wide = lp._prepare_program(program([[2, 1]], [1], [1, 1]))
        assert not wide.int_mode

    def test_int64_refused_for_17_rows(self):
        rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]] + [[0, 1, 1, 1]] * 13
        prog = program(rows, [1] * 16, [3, 1, 4, 1])
        assert lp._prepare_program(prog).int_mode
        taller = program(rows + [rows[0]], [1] * 17, [3, 1, 4, 1])
        assert not lp._prepare_program(taller).int_mode
        assert not lp._prepare_int01(np.array(rows + [rows[0]]), [3, 1, 4, 1]).int_mode
        # the redundant row changes the arithmetic path, not the answer
        assert solve(taller).value == solve(prog).value

    def test_int64_refused_for_large_cost(self):
        assert lp._prepare_program(program([[1, 0], [0, 1]], [1, 1], [2**20, 1])).int_mode
        big = program([[1, 0], [0, 1]], [1, 1], [2**20 + 1, 1])
        assert not lp._prepare_program(big).int_mode
        assert not lp._prepare_int01(np.eye(2, dtype=np.int64), [2**20 + 1, 1]).int_mode

    def test_int64_refused_for_non_01_matrix(self):
        assert not lp._prepare_program(program([[2, 1]], [1], [1, 1])).int_mode
        # a negative rhs flips its row to -1 entries
        assert not lp._prepare_program(program([[1, 1]], [-1], [1, 1])).int_mode
        with pytest.raises(ValueError, match="0 or 1"):
            lp._prepare_int01(np.array([[1, 2]]), [1, 1])

    def test_bland_fallback_same_answer(self, monkeypatch):
        prog = program(
            [[1, 1, 1, 0], [0, 1, 1, 1]],
            [2, 1],
            [1, 5, 1, 2],
        )
        baseline = solve(prog)
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
        pure_bland = solve(prog)
        assert pure_bland.status == baseline.status
        assert pure_bland.value == baseline.value


class TestTwoPhaseDualCheck:
    def test_corrupted_reduced_costs_are_caught(self, monkeypatch):
        # Phase 2 reads all-zero reduced costs, so it stops at once on the
        # phase-1 basis (column 0 at cost 3), which column 1 beats: the final
        # integer check of the true reduced costs must refuse it.
        loop = lp._Engine._loop

        def misread_phase_two(engine, col_cost, allowed=None):
            if col_cost is None:
                return loop(engine, col_cost, allowed)
            engine._reduced = lambda costs, a: np.zeros(a.shape[1], dtype=object)
            try:
                return loop(engine, col_cost, allowed)
            finally:
                del engine._reduced

        monkeypatch.setattr(lp._Engine, "_loop", misread_phase_two)
        with pytest.raises(RuntimeError, match="not dual-feasible"):
            solve(program([[1, 1]], [1], [3, 1]))


class TestFailureCertificates:
    """A failure status whose certificate does not hold is refused before any
    Fraction of it is returned."""

    def test_false_two_phase_infeasibility_is_caught(self, monkeypatch):
        run = lp._Engine.run_two_phase

        def misreport(engine):
            run(engine)
            return "infeasible", None, None

        monkeypatch.setattr(lp._Engine, "run_two_phase", misreport)
        with pytest.raises(RuntimeError, match="Farkas certificate"):
            solve(program([[1, 1]], [1], [3, 1]))

    def test_false_unboundedness_is_caught(self, monkeypatch):
        # Phase 2 finds no leaving row for column 1, which beats the phase-1
        # basis (column 0): the ray (-1, 1) is not nonnegative.
        loop = lp._Engine._loop

        def no_leaving_row_in_phase_two(engine, col_cost, allowed=None):
            if col_cost is None:
                return loop(engine, col_cost, allowed)
            engine._ratio_row = lambda w: None
            try:
                return loop(engine, col_cost, allowed)
            finally:
                del engine._ratio_row

        monkeypatch.setattr(lp._Engine, "_loop", no_leaving_row_in_phase_two)
        with pytest.raises(RuntimeError, match="unbounded ray"):
            solve(program([[1, 1]], [1], [3, 1]))


# Costs scaled past the int64 rule's 2**20 put a 0/1 system on the object
# path; a positive scale keeps every pivot choice.
_OBJECT_SCALE = 2**21


def check_kernel_state(engine: lp._Engine) -> None:
    """The kernel's invariants, recomputed in Python integers: M B = delta I
    over the basic columns (artificials included), xi = M b_num, and the
    pricing row equal to c delta - c_B M A for the running objective."""
    m, n, delta = engine.m, engine.n, engine.delta
    assert delta > 0
    a = engine.a.tolist()
    mat = engine.mat.tolist()
    for col, jb in enumerate(engine.basis):
        column = [a[r][jb] for r in range(m)] if jb < n else [int(r == jb - n) for r in range(m)]
        for i in range(m):
            assert sum(x * y for x, y in zip(mat[i], column)) == delta * (i == col)
    assert engine.xi == [sum(x * y for x, y in zip(row, engine.b_num)) for row in mat]
    objective = engine.objective
    cost = [0] * n if objective is None else list(objective)
    c_b = [int(objective is None) if jb >= n else cost[jb] for jb in engine.basis]
    yhat = [sum(c_b[i] * mat[i][r] for i in range(m)) for r in range(m)]
    want = [cost[k] * delta - sum(yhat[r] * a[r][k] for r in range(m)) for k in range(n)]
    assert engine._reduced(objective, engine.a).tolist() == want


def reoptimize_on_face(engine: lp._Engine) -> None:
    """The reoptimization of cost.optimal_decompositions: minimize the
    weight on the support, entering only zero-reduced-cost columns."""
    known = engine.support()
    engine.reoptimize([int(j in known) for j in range(engine.n)], engine.zero_reduced_mask())


class TestKernelInvariants:
    """Every pivot of two-phase solves and of the reoptimization over their
    optimal faces, on both arithmetic paths, leaves a state whose invariants
    hold exactly."""

    @pytest.fixture
    def divisors(self, monkeypatch):
        """Check the state after every pivot; collect (int_mode, delta) of
        the delta each pivot divided by."""
        seen = set()
        pivot = lp._Engine._pivot

        def checked(engine, j, p, w):
            seen.add((engine.prep.int_mode, engine.delta))
            pivot(engine, j, p, w)
            check_kernel_state(engine)

        monkeypatch.setattr(lp._Engine, "_pivot", checked)
        return seen

    @staticmethod
    def assert_both_divisions(divisors) -> None:
        """Each path pivoted from delta = 1, where the divisions are skipped,
        and from delta > 1, where they run."""
        for int_mode in (True, False):
            assert (int_mode, 1) in divisors
            assert any(d > 1 for mode, d in divisors if mode == int_mode)

    def test_zero_one_programs(self, divisors):
        rng = random.Random(6161)
        for _ in range(30):
            m, n = rng.randint(4, 8), rng.randint(6, 16)
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(0, 4) for _ in range(m)]
            cost = [rng.randint(-1, 3) for _ in range(n)]
            for scale in (1, _OBJECT_SCALE):
                prog = program(rows, rhs, [c * scale for c in cost])
                assert lp._prepare_program(prog).int_mode == (scale == 1)
                _, engine = lp._solve_prepared(
                    lp._prepare_program(prog), *lp._integer_rhs(prog.rhs)
                )
                if engine is not None:
                    reoptimize_on_face(engine)
        self.assert_both_divisions(divisors)

    def test_chsh16_system(self, divisors):
        base = _system_for("chsh16").prep
        preps = (base, lp._prepare_int01(base.a_int, [c * _OBJECT_SCALE for c in base.col_cost]))
        assert [prep.int_mode for prep in preps] == [True, False]
        for family in ("chsh16_mixture", "no_signaling"):
            for box in draw(FamilySpec(family, 17), 12):
                for prep in preps:
                    _, engine = lp._solve_prepared(prep, box.num, box.den)
                    if engine is not None:
                        reoptimize_on_face(engine)
        self.assert_both_divisions(divisors)


class TestRemainderTripWires:
    """At delta = 2 a corrupted M or xi entry makes an inexact division,
    which the pivot refuses, on both arithmetic paths."""

    # B = columns 0..2 has determinant 2; column 3 then enters at row 0
    # with w = (1, 1, 1), so delta' = 1 and each numerator must stay even.
    ROWS = [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]

    def engine_at_delta_two(self, scale: int) -> lp._Engine:
        prep = lp._prepare_int01(np.array(self.ROWS), [scale] * 4)
        assert prep.int_mode == (scale == 1)
        engine = lp._Engine(prep, [2, 2, 2], 1)
        for j in range(3):
            engine._pivot(j, j, engine._entering_w(j))
        assert engine.delta == 2
        return engine

    @pytest.mark.parametrize("scale", [1, _OBJECT_SCALE])
    def test_corrupted_basis_entry(self, scale):
        engine = self.engine_at_delta_two(scale)
        w = engine._entering_w(3)
        assert w.tolist() == [1, 1, 1]
        uncorrupted = copy.deepcopy(engine)
        uncorrupted._pivot(3, 0, w)
        assert uncorrupted.delta == 1
        engine.mat[1, 0] += 1
        with pytest.raises(RuntimeError, match="inexact division in basis update"):
            engine._pivot(3, 0, w)

    @pytest.mark.parametrize("scale", [1, _OBJECT_SCALE])
    def test_corrupted_rhs_entry(self, scale):
        engine = self.engine_at_delta_two(scale)
        w = engine._entering_w(3)
        engine.xi[1] += 1
        with pytest.raises(RuntimeError, match="inexact division in rhs update"):
            engine._pivot(3, 0, w)


def fixed_columns(prog: LinearProgram) -> list[int]:
    """The columns the forcing-row presolve fixes at zero on prog."""
    engine = lp._Engine(lp._prepare_program(prog), *lp._integer_rhs(prog.rhs))
    return engine.sums.nonzero()[0].tolist()


class TestForcingRowPresolve:
    """Explicit programs for the presolve's soundness, against the oracle."""

    # x0 = 1 (row 0), x0 - x1 = 1 (row 1, given as -x0 + x1 = -1), x2 = 0 on
    # the zero row 2, which fixes x2; x0 and x1 stay free and independent.
    LIFTED = ([[1, 0, 0], [-1, 1, 0], [0, 0, 1]], [1, -1, 0], [0, -1, -5])

    def test_zero_row_with_a_negative_entry_fixes_nothing(self):
        # min -x0 with x0 - x1 = 0 and x1 + x2 = 1: fixing x0 and x1 on the
        # first row would give 0, not -1.
        rows, rhs, cost = [[1, -1, 0], [0, 1, 1]], [0, 1], [-1, 0, 0]
        prog = program(rows, rhs, cost)
        assert fixed_columns(prog) == []
        got = solve(prog)
        assert solve_reference(rows, rhs, cost) == ("optimal", got.value, list(got.point))
        assert got.value == -1

    def test_lifted_dual_covers_a_fixed_column(self):
        # At the restricted optimum the fixed x2 has reduced cost -5: only
        # the lift on the zero row makes the dual feasible there.
        rows, rhs, cost = self.LIFTED
        prog = program(rows, rhs, cost)
        assert fixed_columns(prog) == [2]
        got, engine = lp._solve_prepared(lp._prepare_program(prog), *lp._integer_rhs(prog.rhs))
        assert engine._reduced(engine.prep.cost_vec, engine.a)[2] < 0
        assert (got.status, got.value) == solve_reference(rows, rhs, cost)[:2]
        # the lifted yhat = delta y in the row-scaled integers, read back
        # into the program's own rows
        yhat = engine._certificate_dual(engine.prep.cost_vec).tolist()
        den = engine.delta * engine.prep.cost_den
        y = [F(v * k, den) for v, k in zip(yhat, engine.prep.row_scale)]
        for j in range(3):
            assert sum(y[i] * rows[i][j] for i in range(3)) <= cost[j], j
        assert sum(y[i] * rhs[i] for i in range(3)) == got.value

    def test_infeasible_program_lifts_its_farkas_vector(self):
        # x0 + x1 = 1 and x0 = 2 with x1 + x2 = 0 fixing x1 and x2: the
        # phase-1 duals (-1, 1, 1) have y.a_2 = 2 > 0 until the lift.
        rows, rhs, cost = [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 0, 2], [0, 0, 0]
        prog = program(rows, rhs, cost)
        assert fixed_columns(prog) == [1, 2]
        got = solve(prog)
        assert got.status == solve_reference(rows, rhs, cost)[0] == "infeasible"
        check_certificate(prog, got)

    def test_free_column_with_negative_reduced_cost_is_caught(self, monkeypatch):
        # Skipping the drive-out and phase 2 leaves the free x1 nonbasic at
        # reduced cost -1; the lift on the zero row cannot reach it.
        prog = program(*self.LIFTED)
        loop = lp._Engine._loop

        def no_phase_two(engine, col_cost, allowed=None):
            if col_cost is None:
                return loop(engine, col_cost, allowed)
            return "optimal", None, None

        monkeypatch.setattr(lp._Engine, "_drive_out_artificials", lambda engine: None)
        monkeypatch.setattr(lp._Engine, "_loop", no_phase_two)
        with pytest.raises(RuntimeError, match="not dual-feasible"):
            solve(prog)


def full_pricing_loop(engine, col_cost, allowed=None):
    """The reference for _Engine._loop: price every column and zero the
    price of each one that may not enter, then pick as _loop does."""
    if engine.free is not None:
        free = np.zeros(engine.n, dtype=bool)
        free[engine.free] = True
        allowed = free if allowed is None else allowed & free
    engine.objective, engine.cost_b = col_cost, engine._cost_basis(col_cost)
    for iteration in range(lp._ITERATION_CAP):
        reduced = engine._reduced(col_cost, engine.a)
        if allowed is not None:
            reduced = np.where(allowed, reduced, 0)
        if iteration < lp._BLAND_AFTER:
            j = int(reduced.argmin())
            entering = reduced[j] < 0
        else:
            negative = reduced < 0
            j = int(negative.argmax())
            entering = negative[j]
        if not entering:
            return "optimal", None, None
        w = engine._entering_w(j)
        p = engine._ratio_row(w)
        if p is None:
            return "unbounded", j, w
        engine._pivot(j, p, w)
    raise RuntimeError("simplex iteration cap exceeded")


def full_pricing_drive_out(engine):
    """The reference for _Engine._drive_out_artificials: search every
    column's entry on the artificial's row, zeroed where it may not enter."""
    for p in range(engine.m):
        if engine.basis[p] < engine.n:
            continue
        row = engine.mat[p] @ engine.a
        if engine.free is not None:
            row = np.where(np.isin(np.arange(engine.n), engine.free), row, 0)
        pivots = row.nonzero()[0]
        if not len(pivots):
            engine.inert[p] = True
            continue
        j = int(pivots[0])
        engine._pivot(j, p, engine._entering_w(j))


def sparse_mixtures(seed: int, parts: list, count: int) -> list:
    """Mixtures of 1 to 3 distinct parts with integer weights 1 to 64."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chosen = rng.sample(parts, rng.randint(1, 3))
        out.append(mix_ints([rng.randint(1, 64) for _ in chosen], chosen))
    return out


class TestPartialPricing:
    """Pricing only the columns that may enter, in ascending order, takes
    the pivots of pricing every column and masking the rest, (j, p) for
    (j, p), on presolved and unpresolved solves of both bases and on the
    optimal-face reoptimization."""

    DETERMINISTIC = [d.as_box() for d in enumerate_deterministic()]
    MIXTURES = sparse_mixtures(2424, DETERMINISTIC, 60) + sparse_mixtures(
        4242, list(no_signaling_vertices()), 60
    )

    @staticmethod
    def pivots(monkeypatch, run, reference: bool) -> list[tuple[int, int]]:
        seen = []
        pivot = lp._Engine._pivot

        def recorded(engine, j, p, w):
            seen.append((j, p))
            pivot(engine, j, p, w)

        with monkeypatch.context() as patch:
            patch.setattr(lp._Engine, "_pivot", recorded)
            if reference:
                patch.setattr(lp._Engine, "_loop", full_pricing_loop)
                patch.setattr(lp._Engine, "_drive_out_artificials", full_pricing_drive_out)
            run()
        return seen

    def assert_same_pivots(self, monkeypatch, run) -> None:
        got = self.pivots(monkeypatch, run, reference=False)
        assert got == self.pivots(monkeypatch, run, reference=True)

    def test_presolved_solves(self, monkeypatch):
        presolved = pivoted = 0
        for basis in ("full256", "chsh16"):
            prep = _system_for(basis).prep
            for box in self.DETERMINISTIC + self.MIXTURES:
                engine = lp._Engine(prep, box.num, box.den)
                if len(engine.free) == engine.n:
                    continue
                presolved += 1
                pivoted += len(engine.free) > 1
                self.assert_same_pivots(
                    monkeypatch, lambda: lp._solve_prepared(prep, box.num, box.den)
                )
        # every deterministic box on both bases, and mixtures, some of them
        # with a choice of columns to enter
        assert presolved >= 2 * 256 + 100 and pivoted >= 30

    # Dense draws, on which the presolve fixes nothing: the candidate list
    # is every column.
    UNPRESOLVED = [("full256", "general", 30), ("chsh16", "chsh16_mixture", 40),
                   ("chsh16", "no_signaling", 40)]

    def test_unpresolved_solves(self, monkeypatch):
        for basis, family, count in self.UNPRESOLVED:
            prep = _system_for(basis).prep
            for box in draw(FamilySpec(family, 2727), count):
                assert len(lp._Engine(prep, box.num, box.den).free) == prep.n
                self.assert_same_pivots(
                    monkeypatch, lambda: lp._solve_prepared(prep, box.num, box.den)
                )

    def test_face_reoptimization(self, monkeypatch):
        boxes = [canonical("noise"), canonical("d3_1")] + self.MIXTURES
        for basis in ("full256", "chsh16"):
            for box in boxes:

                def run():
                    try:
                        optimal_decompositions(box, basis)
                    except NotInHull:
                        pass

                self.assert_same_pivots(monkeypatch, run)

    # Presolved 0/1 programs whose drive-out finds an artificial row with
    # more than one free column to pivot in (4 of 3000 random draws).
    DRIVE_OUT_CHOICES = [
        (
            [[1, 0, 0, 1, 1, 0, 1, 0], [0, 0, 1, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 1, 0, 1],
             [0, 1, 1, 0, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 0, 1]],
            [2, 0, 2, 2, 2],
        ),
        ([[1, 1, 1, 1, 1, 1], [0, 1, 1, 0, 1, 1], [0, 0, 0, 1, 1, 0], [0, 0, 1, 1, 0, 1]],
         [1, 1, 1, 0]),
        (
            [[1, 1, 0, 1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 0, 1, 0, 0, 1],
             [1, 0, 1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 1, 0, 1, 0]],
            [1, 0, 1, 1, 0],
        ),
    ]

    def test_drive_out_with_a_choice(self, monkeypatch):
        for rows, rhs in self.DRIVE_OUT_CHOICES:
            for scale in (1, _OBJECT_SCALE):
                prep = lp._prepare_int01(np.array(rows), [scale] * len(rows[0]))
                engine = lp._Engine(prep, rhs, 1)
                assert engine.run_phase1()
                choices = [
                    np.count_nonzero(engine.mat[p] @ engine.a[:, engine.free])
                    for p in range(engine.m)
                    if engine.basis[p] >= engine.n
                ]
                assert max(choices) >= 2
                self.assert_same_pivots(monkeypatch, lambda: lp._solve_prepared(prep, rhs, 1))


class TestObjectiveForm:
    """Every objective a loop prices is an array of its path's dtype, built
    once per solve or reoptimization, never per pricing call."""

    def test_priced_objectives_are_arrays(self, monkeypatch, tmp_path):
        box = next(draw(FamilySpec("general", 7), 1))
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box_to_json_obj(box)), encoding="utf-8")
        reduced, seen = lp._Engine._reduced, []

        def recorded(engine, col_cost, *args, **kwargs):
            seen.append((col_cost, engine.prep.dtype))
            return reduced(engine, col_cost, *args, **kwargs)

        monkeypatch.setattr(lp._Engine, "_reduced", recorded)
        for argv in (
            ("decompose", "noise", "--alt"),
            ("decompose", "d3_1", "--alt"),
            ("decompose", "isotropic", "--v", "7/10", "--basis", "chsh16", "--alt"),
            ("analyze", str(path)),
            ("fuzz", "--family", "chsh16_mixture", "--count", "5"),
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == 0, argv
        assert any(col_cost is not None for col_cost, _ in seen)
        for col_cost, dtype in seen:
            assert col_cost is None or (
                isinstance(col_cost, np.ndarray) and col_cost.dtype == dtype
            )
