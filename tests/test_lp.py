from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import corrbox.lp as lp
from corrbox.lp import (
    DimensionMismatch,
    LinearProgram,
    LpSolution,
    find_alternative_vertex,
    solve,
)

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
    explicit examples.  60 two-phase programs (random.Random(4242): at most 3
    rows and 5 columns, entries, rhs and costs in -3..3), each warm-solved
    on its rhs reversed.  120 warm-start programs (random.Random(5151): at
    most 4 rows and 6 columns, alternately general entries and costs in
    -3..3 and 0/1 entries with costs in 0..3), each with a start rhs the
    oracle solves to optimality and a second rhs, both in -3..3."""
    rng = random.Random(4242)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        cost = [rng.randint(-3, 3) for _ in range(n)]
        test = example(("general", rows, rhs, cost, rhs[::-1]))(test)
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
        start_rhs = [rng.randint(-3, 3) for _ in range(m)]
        if solve_reference(rows, start_rhs, cost)[0] != "optimal":
            continue
        trials += 1
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        # a negative start rhs flips its row off the int64 path
        kind = "zero_one" if zero_one and min(start_rhs) >= 0 else "general"
        test = example((kind, rows, start_rhs, cost, rhs))(test)
    return test


_SMALL = st.integers(-3, 3)


def _vectors(elements, size: int):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def _general_programs(draw):
    """(kind, rows, rhs, cost, warm_rhs) with general integers: the object
    path."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rows = draw(_vectors(_vectors(_SMALL, n), m))
    return "general", rows, draw(_vectors(_SMALL, m)), draw(_vectors(_SMALL, n)), draw(
        _vectors(_SMALL, m)
    )


@st.composite
def _zero_one_programs(draw):
    """(kind, rows, rhs, cost, warm_rhs) for a 0/1 matrix whose rows and
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
    return "zero_one", rows, rhs, cost, draw(_vectors(st.integers(0, 3), m))


_PROGRAMS = {"general": _general_programs(), "zero_one": _zero_one_programs()}
# find() stops at the first example that meets its condition, unshrunk.
_FIRST_EXAMPLE = settings(phases=[Phase.generate])


def _path_and_status(case) -> tuple[str, str]:
    """("int64" or "object", the solve's status)."""
    _, rows, rhs, cost, _ = case
    prog = program(rows, rhs, cost)
    path = "int64" if lp._prepare_program(prog).int_mode else "object"
    return path, solve(prog).status


def _warm_path_and_status(case) -> tuple[str, str | None]:
    """("int64" or "object", the warm solve's status), the status None when
    the start rhs has no optimum to start from."""
    _, rows, rhs, cost, warm_rhs = case
    prog = program(rows, rhs, cost)
    path = "int64" if lp._prepare_program(prog).int_mode else "object"
    if solve(prog).status != "optimal":
        return path, None
    return path, warm_solve(rows, rhs, warm_rhs, cost)[1].status


def _has_inert_row(case) -> bool:
    _, rows, rhs, cost, _ = case
    prog = program(rows, rhs, cost)
    engine = lp._Engine(lp._prepare_program(prog), *lp._integer_rhs(prog.rhs))
    engine.run_two_phase()
    return any(engine.inert)


class TestAgainstReference:
    """lp.solve (two-phase) and the warm solve against the dense-tableau
    oracle, on both arithmetic paths."""

    @settings(max_examples=300)
    @given(st.one_of(_general_programs(), _zero_one_programs()))
    @_with_seeded_examples
    def test_two_phase_and_warm_solves_match_reference(self, case):
        kind, rows, rhs, cost, warm_rhs = case
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
        # the optimal basis of rhs starts a dual simplex on warm_rhs
        warm_prog, warm = warm_solve(rows, rhs, warm_rhs, cost)
        ref_status, ref_value, _ = solve_reference(rows, warm_rhs, cost)
        # a dual-feasible start rules out an unbounded program
        assert warm.status == ref_status
        if warm.status == "optimal":
            assert warm.value == ref_value
            assert warm.point == ()
        check_warm_certificate(warm_prog, warm)

    @pytest.mark.parametrize("kind,path", [("general", "object"), ("zero_one", "int64")])
    @pytest.mark.parametrize("status", ["optimal", "infeasible", "unbounded"])
    def test_every_status_occurs_on_both_paths(self, kind, path, status):
        find(
            _PROGRAMS[kind],
            lambda case: _path_and_status(case) == (path, status),
            settings=_FIRST_EXAMPLE,
        )

    @pytest.mark.parametrize("kind,path", [("general", "object"), ("zero_one", "int64")])
    @pytest.mark.parametrize("status", ["optimal", "infeasible"])
    def test_warm_solve_reaches_every_status_on_both_paths(self, kind, path, status):
        find(
            _PROGRAMS[kind],
            lambda case: _warm_path_and_status(case) == (path, status),
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


class TestAlternativeVertex:
    def test_finds_second_support(self):
        prog = program([[1, 1]], [1], [5, 5])
        first = solve(prog)
        second = find_alternative_vertex(prog, first)
        assert second is not None
        assert second.value == first.value
        assert {j for j, v in enumerate(second.point) if v != 0} != {
            j for j, v in enumerate(first.point) if v != 0
        }
        assert all(r == 0 for r in residual(prog, second.point))

    def test_unique_optimum_returns_none(self):
        prog = program([[1, 1]], [1], [1, 2])
        first = solve(prog)
        assert find_alternative_vertex(prog, first) is None

    def test_single_pivot_from_the_face_vertex(self):
        # Stage 1 ends on the known support; the second support is one
        # zero-reduced-cost pivot away from it.
        prog = program([[2, 0, 0, 2], [0, 1, 0, 1]], [3, 1], [2, 0, 2, 2])
        first = solve(prog)
        assert first.point == (F(1, 2), F(0), F(0), F(1))
        second = find_alternative_vertex(prog, first)
        assert second is not None
        assert second.point == (F(3, 2), F(1), F(0), F(0))
        assert second.basis == (0, 1)
        assert second.value == first.value == 3
        assert all(r == 0 for r in residual(prog, second.point))

    def test_every_vertex_leaves_through_the_dual_check(self, monkeypatch):
        # The two-phase vertex, the stage-1 vertex (on the known support)
        # and the stage-2 vertex each pass the integer dual check.
        prog = program([[2, 0, 0, 2], [0, 1, 0, 1]], [3, 1], [2, 0, 2, 2])
        first = solve(prog)
        check = lp._Engine.check_dual_feasible
        calls = []

        def counted(engine):
            calls.append(engine.structural_basis())
            return check(engine)

        monkeypatch.setattr(lp._Engine, "check_dual_feasible", counted)
        assert find_alternative_vertex(prog, first).basis == (0, 1)
        assert calls == [first.basis, first.basis, (0, 1)]

    def test_non_optimal_input_returns_none(self):
        prog = program([[1]], [-1], [1])
        first = solve(prog)
        assert first.status == "infeasible"
        assert find_alternative_vertex(prog, first) is None


def check_warm_certificate(prog: LinearProgram, got: LpSolution) -> None:
    """Farkas vector when infeasible; dual vector of the same value when optimal."""
    y = got.certificate
    assert y is not None
    m = len(prog.rhs)
    columns = [
        sum(y[i] * prog.constraint_matrix[i][j] for i in range(m))
        for j in range(len(prog.objective))
    ]
    y_rhs = sum(y[i] * prog.rhs[i] for i in range(m))
    if got.status == "infeasible":
        assert all(v <= 0 for v in columns)
        assert y_rhs > 0
    else:
        assert all(v <= c for v, c in zip(columns, prog.objective))
        assert y_rhs == got.value


def warm_solve(rows, start_rhs, rhs, cost) -> tuple[LinearProgram, LpSolution]:
    """Solve (rows, rhs, cost) by dual simplex from the optimal basis of
    (rows, start_rhs, cost)."""
    start_prog = program(rows, start_rhs, cost)
    prep = lp._prepare_program(start_prog)
    start = lp._start_state(prep, *lp._integer_rhs(start_prog.rhs))
    prog = program(rows, rhs, cost)
    got, _ = lp._solve_prepared(prep, *lp._integer_rhs(prog.rhs), start)
    return prog, got


class TestTwoPhaseDualCheck:
    def test_corrupted_reduced_costs_are_caught(self, monkeypatch):
        # Phase 2 reads all-zero reduced costs, so it stops at once on the
        # phase-1 basis (column 0 at cost 3), which column 1 beats: the final
        # integer check of the true reduced costs must refuse it.
        loop = lp._Engine._loop

        def misread_phase_two(engine, col_cost, allowed=None):
            if col_cost is None:
                return loop(engine, col_cost, allowed)
            engine._reduced = lambda costs: np.zeros(engine.n, dtype=object)
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

    def test_false_warm_infeasibility_is_caught(self, monkeypatch):
        prep = lp._prepare_program(program([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 2, 1]))
        start = lp._start_state(prep, [1, 1], 1)
        monkeypatch.setattr(lp._Engine, "run_dual", lambda engine, reduced: 0)
        with pytest.raises(RuntimeError, match="Farkas certificate"):
            lp._solve_prepared(prep, [2, 1], 1, start)

    def test_false_chained_infeasibility_is_caught(self, monkeypatch):
        # A start made from a warm solve's optimum, as a warm path chains them.
        prep = lp._prepare_program(program([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 2, 1]))
        _, engine = lp._solve_prepared(prep, [2, 1], 1, lp._start_state(prep, [1, 1], 1))
        chained = lp._start_from(engine)
        monkeypatch.setattr(lp._Engine, "run_dual", lambda engine, reduced: 0)
        with pytest.raises(RuntimeError, match="Farkas certificate"):
            lp._solve_prepared(prep, [1, 3], 1, chained)

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


class TestWarmStart:
    @pytest.mark.parametrize("cost,value", [([0, 1, 2], 1), ([0, 0, 0], 0)], ids=["at_1", "at_0"])
    def test_ratio_tie_enters_the_largest_pivot(self, monkeypatch, cost, value):
        # From the start basis (0,) the rhs -1 makes row 0 leave, and columns
        # 1 and 2 tie at the least ratio (1/1 = 2/2, or 0/1 = 0/2) with pivot
        # elements -1 and -2: the larger |M_r a_j| enters, and under Bland's
        # rule the smaller index.
        rows = [[1, -1, -2]]
        _, got = warm_solve(rows, [1], [-1], cost)
        assert (got.status, got.value, got.basis) == ("optimal", value, (2,))
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
        _, bland = warm_solve(rows, [1], [-1], cost)
        assert (bland.status, bland.value, bland.basis) == ("optimal", value, (1,))

    @given(
        data=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), min_size=1, max_size=12),
        scale=st.sampled_from([1, 10**30]),
        bland=st.booleans(),
    )
    def test_ratio_test_matches_a_fraction_reference(self, data, scale, bland):
        # Small entries make many ties; the scale of 10**30 takes the object path.
        reduced = [d * scale for d, _ in data]
        row = [a for _, a in data]
        candidates = [j for j, a in enumerate(row) if a < 0]
        expected = None
        if candidates:
            ratio = {j: F(reduced[j], -row[j]) for j in candidates}
            tied = [j for j in candidates if ratio[j] == min(ratio.values())]
            expected = tied[0] if bland else min(tied, key=lambda j: (row[j], j))
        dtype = np.int64 if scale == 1 else object
        engine = SimpleNamespace(reduced=np.array(reduced, dtype=dtype))
        got = lp._Engine._dual_ratio_column(engine, np.array(row, dtype=dtype), bland)
        assert got == expected

    def test_inert_row_proves_infeasibility(self):
        prog, got = warm_solve([[1, 1], [1, 1]], [1, 1], [1, 2], [2, 3])
        assert got.status == "infeasible"
        check_warm_certificate(prog, got)

    def test_negative_values_pivot_out(self):
        prog, got = warm_solve(
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], [1, 1, 1], [3, 1, 2], [3, 1, 4, 1]
        )
        ref_status, ref_value, _ = solve_reference(
            [list(r) for r in prog.constraint_matrix], list(prog.rhs), list(prog.objective)
        )
        assert got.status == ref_status == "optimal"
        assert got.value == ref_value
        check_warm_certificate(prog, got)

    def test_start_needs_an_optimum(self):
        prep = lp._prepare_program(program([[1, -1]], [0], [-1, 0]))
        with pytest.raises(ValueError):
            lp._start_state(prep, [0], 1)

    def test_start_that_is_not_dual_feasible_is_caught(self):
        # The optimal basis for costs (1, 3, 2) is column 0, which column 1
        # beats under costs (3, 1, 2): the final integer check must refuse it.
        other = lp._prepare_program(program([[1, 1, 1]], [1], [1, 3, 2]))
        start = lp._start_state(other, [1], 1)
        prep = lp._prepare_program(program([[1, 1, 1]], [1], [3, 1, 2]))
        with pytest.raises(RuntimeError, match="not dual-feasible"):
            lp._solve_prepared(prep, [1], 1, start)


def fixed_columns(prog: LinearProgram) -> list[int]:
    """The columns the forcing-row presolve fixes at zero on prog."""
    engine = lp._Engine(lp._prepare_program(prog), *lp._integer_rhs(prog.rhs))
    engine.presolve()
    return [] if engine.free is None else (~engine.free).nonzero()[0].tolist()


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
        assert engine._reduced(engine.prep.col_cost)[2] < 0
        assert (got.status, got.value) == solve_reference(rows, rhs, cost)[:2]
        y = engine.dual_vector()
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
