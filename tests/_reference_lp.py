"""Independent dense-tableau simplex used only as a test oracle.

Textbook implementation: full tableau of Fractions, two phases, Bland's rule
everywhere.  Slow and simple on purpose; it shares no code with the package
solver it cross-checks.
"""

from __future__ import annotations

from fractions import Fraction


def solve_reference(a_rows, rhs, objective):
    """Minimize objective.x with A x = rhs, x >= 0.

    Returns (status, value, point) with status optimal/infeasible/unbounded;
    value and point are None unless optimal."""
    a_rows = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in rhs]
    objective = [Fraction(x) for x in objective]
    m = len(a_rows)
    n = len(objective)
    rows = []
    b = []
    for i in range(m):
        if rhs[i] < 0:
            rows.append([-x for x in a_rows[i]])
            b.append(-rhs[i])
        else:
            rows.append(list(a_rows[i]))
            b.append(rhs[i])
    # columns: n structural, m artificial, then the rhs
    tab = [
        rows[i] + [Fraction(1 if k == i else 0) for k in range(m)] + [b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    def pivot(r, c):
        piv = tab[r][c]
        tab[r] = [x / piv for x in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        basis[r] = c

    def run(cost, allowed_columns):
        while True:
            enter = None
            for j in allowed_columns:
                reduced = cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
                if reduced < 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            candidates = [
                (tab[i][-1] / tab[i][enter], basis[i], i)
                for i in range(m)
                if tab[i][enter] > 0
            ]
            if not candidates:
                return "unbounded"
            candidates.sort(key=lambda t: (t[0], t[1]))
            pivot(candidates[0][2], enter)

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    run(phase1, range(n + m))
    if sum(tab[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return "infeasible", None, None
    # An artificial left basic at zero would turn positive in phase 2 on a
    # negative entry, which the ratio test ignores: pivot it out on any
    # nonzero structural entry, or drop its row when there is none (the row
    # is then a combination of the others).
    phase2 = list(objective) + [Fraction(0)] * m
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is not None:
                pivot(i, enter)
    keep = [i for i in range(m) if basis[i] < n]
    tab[:] = [tab[i] for i in keep]
    basis[:] = [basis[i] for i in keep]
    m = len(keep)
    status = run(phase2, range(n))
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    value = sum(objective[j] * x[j] for j in range(n))
    return "optimal", value, x
