from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

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
        got = solve(prog)
        n = len(prog.objective)
        m = len(prog.rhs)
        if got.status == "infeasible":
            y = got.certificate
            assert y is not None, label
            for j in range(n):
                column_value = sum(y[i] * prog.constraint_matrix[i][j] for i in range(m))
                assert column_value <= 0, f"{label}: y.A[{j}] = {column_value}"
            assert sum(y[i] * prog.rhs[i] for i in range(m)) > 0, label
        elif got.status == "unbounded":
            ray = got.certificate
            assert ray is not None, label
            assert all(x >= 0 for x in ray), label
            for i in range(m):
                row_value = sum(prog.constraint_matrix[i][j] * ray[j] for j in range(n))
                assert row_value == 0, f"{label}: A.ray[{i}] = {row_value}"
            assert sum(prog.objective[j] * ray[j] for j in range(n)) < 0, label

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


class TestRandomizedAgainstReference:
    def test_small_random_programs(self):
        rng = random.Random(4242)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for trial in range(60):
            m = rng.randint(1, 3)
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-3, 3) for _ in range(m)]
            cost = [rng.randint(-3, 3) for _ in range(n)]
            prog = program(rows, rhs, cost)
            got = solve(prog)
            ref_status, ref_value, _ = solve_reference(rows, rhs, cost)
            assert got.status == ref_status, f"trial {trial}: {got.status} vs {ref_status}"
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.value == ref_value, f"trial {trial}"
                assert all(r == 0 for r in residual(prog, got.point)), f"trial {trial}"
        # the seed must exercise every status at least once
        assert min(statuses.values()) > 0, statuses


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


class TestWarmStart:
    def test_random_programs_against_reference(self):
        rng = random.Random(5151)
        statuses = {"optimal": 0, "infeasible": 0}
        trials = 0
        while trials < 120:
            m = rng.randint(1, 4)
            n = rng.randint(1, 6)
            if trials % 2:
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
            prog, got = warm_solve(rows, start_rhs, rhs, cost)
            ref_status, ref_value, _ = solve_reference(rows, rhs, cost)
            # a dual-feasible start rules out an unbounded program
            assert got.status == ref_status, f"trial {trials}: {got.status} vs {ref_status}"
            statuses[got.status] += 1
            if got.status == "optimal":
                assert got.value == ref_value, f"trial {trials}"
                assert got.point == ()
            check_warm_certificate(prog, got)
        assert min(statuses.values()) > 0, statuses

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
