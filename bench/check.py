"""Checks corrbox's outputs without using corrbox's own computations.

Every quantity is recomputed here from the 16 cells of the box, from the
definitions in the project README.  The cost C comes from scipy's HiGHS and
is then made exact: HiGHS's dual vector, rounded to rationals, is checked
in integers to be dual-feasible over the strategies, and the primal support
HiGHS picks is solved again in Fractions.  When both sides meet, C is
certified; otherwise the float optimum stands in and comparisons allow
1e-9.  Every function returns a list of problems, empty when all holds.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

Cells = Sequence[Fraction]
HALF = Fraction(1, 2)


# -- deterministic strategies ----------------------------------------------


def _table(value: int) -> tuple[int, int, int, int]:
    # Outputs at settings (0,0), (0,1), (1,0), (1,1), most significant first.
    return ((value >> 3) & 1, (value >> 2) & 1, (value >> 1) & 1, value & 1)


def _strategy(sid: int) -> tuple[tuple[int, ...], int, str]:
    """Cells, bit cost and direction of strategy 16 * f + g, where f is
    Alice's output table and g is Bob's."""
    out_a, out_b = _table(sid >> 4), _table(sid & 15)
    cells = [0] * 16
    for k in range(4):
        a, b = divmod(k, 2)
        cells[8 * a + 4 * b + 2 * out_a[k] + out_b[k]] = 1
    a_needs_b = out_a[0] != out_a[1] or out_a[2] != out_a[3]
    b_needs_a = out_b[0] != out_b[2] or out_b[1] != out_b[3]
    direction = {(False, False): "none", (False, True): "AtoB",
                 (True, False): "BtoA", (True, True): "both"}[a_needs_b, b_needs_a]
    return tuple(cells), int(a_needs_b) + int(b_needs_a), direction


STRATEGIES = tuple(_strategy(sid) for sid in range(256))
MATRIX = np.array([cells for cells, _, _ in STRATEGIES], dtype=np.int64).T  # 16 x 256
COSTS = np.array([cost for _, cost, _ in STRATEGIES], dtype=np.int64)


# -- measures --------------------------------------------------------------


def expectation(p: Cells, k: int) -> Fraction:
    base = 4 * k
    return p[base] - p[base + 1] - p[base + 2] + p[base + 3]


def _residual(q: Fraction) -> Fraction:
    return min(q, 1 - q)


def measures(p: Cells) -> dict:
    """Every scalar of the analysis report except C, from the cells."""
    e = [expectation(p, k) for k in range(4)]
    total = sum(e)
    values = [abs(total - 2 * e[k]) for k in range(4)]
    m_a = {(a, b): p[8 * a + 4 * b] + p[8 * a + 4 * b + 1] for a in (0, 1) for b in (0, 1)}
    m_b = {(a, b): p[8 * a + 4 * b] + p[8 * a + 4 * b + 2] for a in (0, 1) for b in (0, 1)}
    a_to_b = max(abs(m_b[0, b] - m_b[1, b]) for b in (0, 1))
    b_to_a = max(abs(m_a[a, 0] - m_a[a, 1]) for a in (0, 1))
    r_a = {k: _residual(v) for k, v in m_a.items()}
    r_b = {k: _residual(v) for k, v in m_b.items()}
    delta = {
        "A0": max(r_a[0, 0], r_a[0, 1]),
        "A1": max(r_a[1, 0], r_a[1, 1]),
        "B0": max(r_b[0, 0], r_b[1, 0]),
        "B1": max(r_b[0, 1], r_b[1, 1]),
    }
    return {
        "values": values,
        "lambda_max": max(values),
        "a_to_b": a_to_b,
        "b_to_a": b_to_a,
        "s": max(a_to_b, b_to_a),
        "i_formula": max(min(r_a[k], r_b[k]) for k in r_a),
        "i_per_party": max(max(r_a.values()), max(r_b.values())),
        "delta": delta,
        "u_a": max(delta["A0"], delta["A1"]),
        "u_b": max(delta["B0"], delta["B1"]),
    }


def signed_pattern(p: Cells) -> Fraction:
    e = [expectation(p, k) for k in range(4)]
    return e[0] + e[1] - e[2] + e[3]


def _chsh16_ids() -> tuple[int, ...]:
    # The 16-box basis: strategies of at most one bit that meet the pattern
    # E00 + E01 - E10 + E11 at 2 + 2 * cost (8 local, 8 one-bit boxes).
    return tuple(
        sid for sid, (cells, cost, _) in enumerate(STRATEGIES)
        if cost <= 1 and signed_pattern([Fraction(x) for x in cells]) == 2 + 2 * cost
    )


CHSH16_IDS = _chsh16_ids()
BASIS_IDS = {"full256": tuple(range(256)), "chsh16": CHSH16_IDS}


# -- exact cost -------------------------------------------------------------


def _solve_exact(columns: list[tuple[int, ...]], rhs: Cells) -> list[Fraction] | None:
    """The unique x with sum_j x_j columns_j = rhs, or None."""
    n, m = len(columns), len(rhs)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(rhs[i])] for i in range(m)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        return None
    return [rows[i][n] for i in range(n)]


def exact_cost(p: Cells, ids: Sequence[int] = BASIS_IDS["full256"]) -> Fraction | float | None:
    """Least bit cost of a decomposition of p over the strategies ids.

    A Fraction when certified, HiGHS's float optimum otherwise, and None
    when p is not a mixture of those strategies."""
    cols = list(ids)
    res = linprog(COSTS[cols], A_eq=MATRIX[:, cols], b_eq=[float(x) for x in p],
                  bounds=(0, None), method="highs-ds")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    y = np.array(res.eqlin.marginals, dtype=float)
    # y + t (1_col0 - 1_colk) prices every strategy alike (each has one cell
    # per setting column), so fix that freedom before rounding.
    for k in (1, 2, 3):
        shift = y[4 * k]
        y[4 * k: 4 * k + 4] -= shift
        y[0:4] += shift
    dual = [Fraction(float(v)).limit_denominator(1000) for v in y]
    den = math.lcm(*(v.denominator for v in dual))
    y_int = np.array([int(v * den) for v in dual], dtype=np.int64)
    lower = sum((d * x for d, x in zip(dual, p)), Fraction(0))
    support = [j for j, x in zip(cols, res.x) if x > 1e-12]
    weights = _solve_exact([STRATEGIES[j][0] for j in support], p)
    if (
        weights is not None
        and min(weights) >= 0
        and bool((MATRIX[:, cols].T @ y_int <= COSTS[cols] * den).all())
        and sum(w * STRATEGIES[j][1] for j, w in zip(support, weights)) == lower
    ):
        return lower
    return float(res.fun)


def _agrees(claimed: Fraction, reference: Fraction | float) -> bool:
    if isinstance(reference, Fraction):
        return claimed == reference
    return abs(float(claimed) - reference) <= 1e-9


# -- boxes named on the command line ---------------------------------------


def pr_cells() -> list[Fraction]:
    # Even mixture of the two one-bit boxes with A xor B = [a = 1 and b = 0].
    return [HALF if (out_a ^ out_b) == (a & (1 - b)) else Fraction(0)
            for a in (0, 1) for b in (0, 1) for out_a in (0, 1) for out_b in (0, 1)]


def isotropic_cells(v: Fraction) -> list[Fraction]:
    return [v * x + (1 - v) / 4 for x in pr_cells()]


def source_cells(argv: Sequence[str]) -> list[Fraction] | None:
    """The box a command names, when it is known apart from corrbox."""
    source = argv[1]
    if source == "pr":
        return pr_cells()
    if source == "noise":
        return [Fraction(1, 4)] * 16
    if source == "isotropic":
        return isotropic_cells(Fraction(argv[argv.index("--v") + 1]))
    if source.endswith(".json"):
        with open(source, encoding="utf-8") as handle:
            return cells_of(json.load(handle))
    return None


def cells_of(obj: dict) -> list[Fraction]:
    if obj.get("format") != "box-v1" or len(obj["p"]) != 4:
        raise ValueError("not a box-v1 object")
    return [Fraction(x) for column in obj["p"] for x in column]


def _check_source(argv: Sequence[str], cells: list[Fraction]) -> list[str]:
    """The reported box is the one the command named."""
    known = source_cells(argv)
    if known is not None:
        return [] if known == cells else ["reported box differs from the named box"]
    source = argv[1]
    if source == "quantum":
        # Correlator cos(theta_a - theta_b) at the Tsirelson angles
        # (0, pi/2) for Alice and (pi/4, -pi/4) for Bob; uniform marginals.
        angles = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        target = [math.cos(angles[a] - angles[2 + b]) for a in (0, 1) for b in (0, 1)]
        ok = all(abs(float(expectation(cells, k)) - target[k]) < 1e-6 for k in range(4))
        ok &= all(abs(float(cells[4 * k] + cells[4 * k + 1]) - 0.5) < 1e-6 for k in range(4))
        return [] if ok else ["quantum box is not the Tsirelson box"]
    # d<i>_<k>: one of the deterministic basis boxes with k bits.
    k = int(source.split("_")[1])
    ok = all(x in (0, 1) for x in cells) and signed_pattern(cells) == 2 + 2 * k
    return [] if ok else [f"{source} is not a {k}-bit basis box"]


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def check_decomposition(obj: dict, cells: Cells, basis: str, cost) -> list[str]:
    """Weights are positive, sum to 1, lie in the basis, mix back to the box
    and cost the optimum."""
    weights = {int(k): Fraction(v) for k, v in obj["weights"].items()}
    problems = []
    if obj.get("basis") != basis:
        problems.append(f"decomposition basis {obj.get('basis')!r} is not {basis}")
    if not set(weights) <= set(BASIS_IDS[basis]):
        problems.append("decomposition uses strategies outside its basis")
        return problems
    if min(weights.values()) <= 0 or sum(weights.values()) != 1:
        problems.append("decomposition weights are not a convex combination")
    mixed = [sum((w * STRATEGIES[j][0][i] for j, w in weights.items()), Fraction(0))
             for i in range(16)]
    if mixed != list(cells):
        problems.append("decomposition does not mix back to its box")
    total = sum((w * STRATEGIES[j][1] for j, w in weights.items()), Fraction(0))
    if Fraction(obj["cost"]) != total or not _agrees(total, cost):
        problems.append(f"decomposition costs {obj['cost']}, optimum {cost}")
    return problems


# -- per-command checks -----------------------------------------------------


def check_analysis(argv: Sequence[str], obj: dict) -> list[str]:
    cells = cells_of(obj["box"])
    problems = _check_source(argv, cells)
    m = measures(cells)
    c = exact_cost(cells)
    want = {
        "chsh": {"values": [_fmt(v) for v in m["values"]], "lambda_max": _fmt(m["lambda_max"])},
        "signal": {"a_to_b": _fmt(m["a_to_b"]), "b_to_a": _fmt(m["b_to_a"]), "s": _fmt(m["s"])},
        "unpredictability": {"formula": _fmt(m["i_formula"]), "per_party": _fmt(m["i_per_party"])},
        "uncertainty": {"delta": {k: _fmt(v) for k, v in m["delta"].items()},
                        "u_a": _fmt(m["u_a"]), "u_b": _fmt(m["u_b"])},
    }
    for key, value in want.items():
        if obj.get(key) != value:
            problems.append(f"analysis {key} is {obj.get(key)}, expected {value}")
    cost = obj["cost"]
    claimed_c = Fraction(cost["c"])
    if not _agrees(claimed_c, c):
        problems.append(f"C is {claimed_c}, expected {c}")
    if Fraction(cost["eta"]) != claimed_c - m["s"]:
        problems.append("eta is not C - s")
    if Fraction(cost["lower_bound"]) != max(Fraction(0), (m["lambda_max"] - 2) / 2):
        problems.append("lower_bound is not max(0, (lambda_max - 2) / 2)")
    problems += check_decomposition(cost["decomposition"], cells, "full256", c)
    flags = {
        "no_signaling": m["s"] == 0,
        "lhv_admissible": m["s"] == 0 and max(m["values"]) <= 2,
        "weakly_nonclassical": m["i_formula"] > 0,
        "strongly_nonclassical": claimed_c - m["s"] > 0,
    }
    if obj.get("flags") != flags:
        problems.append(f"flags are {obj.get('flags')}, expected {flags}")
    if argv[1] == "isotropic":
        v = Fraction(argv[argv.index("--v") + 1])
        if claimed_c != max(Fraction(0), 2 * v - 1):
            problems.append(f"isotropic v={v} has C {claimed_c}, not max(0, 2v - 1)")
    if "--dim" in argv:
        d = int(argv[argv.index("--dim") + 1])
        star = obj.get("eta_star", {})
        if star != {"d": d, "value": "%.12g" % (float(claimed_c) - math.log2(d)),
                    "approximate": True}:
            problems.append(f"eta_star block is {star}")
    return problems


def check_text(argv: Sequence[str], text: str) -> list[str]:
    cells = source_cells(argv)
    if cells is None:
        return ["text report of a box the checker cannot name"]
    m = measures(cells)
    c = exact_cost(cells)
    if not isinstance(c, Fraction):
        return ["text report of a box whose C is not certified"]
    flags = [name for name, on in (
        ("no_signaling", m["s"] == 0),
        ("lhv_admissible", m["s"] == 0 and max(m["values"]) <= 2),
        ("weakly_nonclassical", m["i_formula"] > 0),
        ("strongly_nonclassical", c - m["s"] > 0),
    ) if on]
    lines = [
        f"lambda_max = {_fmt(m['lambda_max'])}",
        f"s = {_fmt(m['s'])}",
        f"C = {_fmt(c)}",
        f"eta = {_fmt(c - m['s'])}",
        f"I = {_fmt(m['i_formula'])}",
        f"U_A = {_fmt(m['u_a'])}",
        f"U_B = {_fmt(m['u_b'])}",
        "flags: " + ", ".join(flags),
    ]
    return [] if text == "\n".join(lines) + "\n" else ["text report differs from recomputation"]


def check_decompose(argv: Sequence[str], obj: dict) -> list[str]:
    basis = argv[argv.index("--basis") + 1] if "--basis" in argv else "full256"
    not_in_hull = {"basis": basis, "status": "not-in-hull"}
    cells = source_cells(argv)
    if cells is None and argv[1] == "quantum":
        # Irrational correlators past the CHSH bound: outside the 16-box hull.
        ok = basis == "chsh16" and obj == not_in_hull
        return [] if ok else ["the Tsirelson box was placed in the chsh16 hull"]
    if cells is None:
        # A named basis box d<i>_<k> is the one strategy it decomposes into.
        first = obj["first"] if "--alt" in argv else obj
        if len(first["weights"]) != 1:
            return [f"{argv[1]} does not decompose into one strategy"]
        cells = [Fraction(x) for x in STRATEGIES[int(next(iter(first["weights"])))][0]]
        problems = _check_source(argv, cells)
        if problems:
            return problems
    cost = exact_cost(cells, BASIS_IDS[basis])
    if argv[1] == "isotropic" and basis == "chsh16":
        v = Fraction(argv[argv.index("--v") + 1])
        if (cost is None) != (v < HALF):
            return [f"isotropic v={v}: hull membership disagrees with v < 1/2"]
    if cost is None:
        return [] if obj == not_in_hull else ["a box outside the hull was decomposed"]
    if "--alt" not in argv:
        return check_decomposition(obj, cells, basis, cost)
    problems = check_decomposition(obj["first"], cells, basis, cost)
    second = obj["second"]
    if second is None:
        if len(obj["first"]["weights"]) != 1:
            problems.append("no second decomposition for a box that is not deterministic")
        return problems
    problems += check_decomposition(second, cells, basis, cost)
    if set(second["weights"]) == set(obj["first"]["weights"]):
        problems.append("the two decompositions share one support")
    return problems


def check_sweep(argv: Sequence[str], text: str) -> list[str]:
    steps = int(argv[argv.index("--steps") + 1])
    names = ("param", "lambda_max", "s", "C", "eta", "I", "U_A", "U_B")
    rows = [
        ",".join(list(names) + [f"{n}_exact" for n in names])
    ]
    for k in range(steps + 1):
        v = Fraction(k, steps)
        m = measures(isotropic_cells(v))
        c = max(Fraction(0), 2 * v - 1)
        exact = (v, m["lambda_max"], m["s"], c, c - m["s"], m["i_formula"], m["u_a"], m["u_b"])
        rows.append(",".join(["%.12g" % float(x) for x in exact] + [_fmt(x) for x in exact]))
    return [] if text == "\n".join(rows) + "\n" else ["sweep CSV differs from recomputation"]


def check_repro(text: str) -> list[str]:
    obj = json.loads(text)
    if obj.get("format") != "repro-v1" or obj.get("failures") != []:
        return [f"repro failures: {obj.get('failures')}"]
    return []


def check_command(argv: Sequence[str], text: str) -> list[str]:
    """Problems with the output of one cli-reports command (exit code 0)."""
    kind = argv[0]
    try:
        if kind == "analyze":
            if "--text" in argv:
                return check_text(argv, text)
            return check_analysis(argv, json.loads(text))
        if kind == "decompose":
            return check_decompose(argv, json.loads(text))
        if kind == "sweep":
            return check_sweep(argv, text)
        if kind == "repro":
            return check_repro(text)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    return [f"no check for command {kind!r}"]


# -- fuzz ---------------------------------------------------------------------

PROPERTY_KEYS = (
    "S_LE_C",
    "S_2I_GE_C.formula", "S_2I_GE_C.per_party",
    "I_GE_HALF_ETA.formula", "I_GE_HALF_ETA.per_party",
    "S_2U_GE_C.u_A", "S_2U_GE_C.u_B",
    "U_GE_HALF_ETA.u_A", "U_GE_HALF_ETA.u_B",
    "OW_BOUND.u_A", "OW_BOUND.u_B",
)
DOMAIN_OF_FAMILY = {"general": "general", "no_signaling": "general",
                    "chsh16_mixture": "chsh16", "oneway_slice": "oneway_slice"}


def _claimed_on(key: str, domain: str) -> bool:
    """Whether an inequality other than OW_BOUND is claimed on the domain
    (the README's tracked inequalities)."""
    if key == "S_LE_C":
        return True
    if key.endswith("u_B"):
        return domain == "chsh16"
    return domain != "general"


def _asserted(key: str, domain: str, s: Fraction) -> bool:
    if key.startswith("OW_BOUND"):
        return s == 0
    return _claimed_on(key, domain)


def property_slacks(p: Cells, c) -> dict:
    m = measures(p)
    s = m["s"]
    eta = c - s
    out = {"S_LE_C": eta}
    for variant in ("formula", "per_party"):
        i = m[f"i_{variant}"]
        out[f"S_2I_GE_C.{variant}"] = s + 2 * i - c
        out[f"I_GE_HALF_ETA.{variant}"] = i - eta / 2
    for variant, u in (("u_A", m["u_a"]), ("u_B", m["u_b"])):
        out[f"S_2U_GE_C.{variant}"] = s + 2 * u - c
        out[f"U_GE_HALF_ETA.{variant}"] = u - eta / 2
        out[f"OW_BOUND.{variant}"] = u - c / 2
    return out


def check_findings(argv: Sequence[str], text: str) -> list[str]:
    """The findings-v1 report of one fuzz command is whole and clean."""
    family = argv[argv.index("--family") + 1]
    seed = int(argv[argv.index("--seed") + 1])
    count = int(argv[argv.index("--count") + 1])
    try:
        obj = json.loads(text)
        head = {k: obj[k] for k in ("format", "family", "seed", "samples", "checked",
                                    "aborted", "corrupted", "violating_witnesses")}
        tallies = obj["per_property"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed findings: {exc!r}"]
    want = {"format": "findings-v1", "family": family, "seed": seed, "samples": count,
            "checked": count, "aborted": False, "corrupted": False,
            "violating_witnesses": []}
    problems = [f"findings {k} is {head[k]!r}, expected {v!r}"
                for k, v in want.items() if head[k] != v]
    if tuple(tallies) != PROPERTY_KEYS:
        return problems + [f"findings keys are {list(tallies)}"]
    domain = DOMAIN_OF_FAMILY[family]
    for key, t in tallies.items():
        if t["checked"] != count or t["held"] + t["violated"] != count:
            problems.append(f"{key} tally {t} does not cover {count} boxes")
        # OW_BOUND is claimed only on boxes with s == 0: checked per box.
        if not key.startswith("OW_BOUND") and _claimed_on(key, domain) and t["violated"]:
            problems.append(f"asserted {key} violated {t['violated']} times")
    return problems


def check_findings_boxes(argv: Sequence[str], text: str, boxes: list[Cells]) -> list[str]:
    """Recompute every tally of one fuzz command from its sampled boxes."""
    family = argv[argv.index("--family") + 1]
    domain = DOMAIN_OF_FAMILY[family]
    tallies = {key: [0, 0, 0] for key in PROPERTY_KEYS}
    problems = []
    for index, cells in enumerate(boxes):
        c = exact_cost(cells)
        s = measures(cells)["s"]
        for key, slack in property_slacks(cells, c).items():
            holds = slack >= 0 if isinstance(slack, Fraction) else slack >= -1e-9
            tally = tallies[key]
            tally[0] += 1
            tally[1 if holds else 2] += 1
            if not holds and _asserted(key, domain, s):
                problems.append(f"box {index}: asserted {key} fails, slack {slack}")
    reported = {k: [v["checked"], v["held"], v["violated"]]
                for k, v in json.loads(text)["per_property"].items()}
    if reported != tallies:
        problems.append(f"tallies {reported} differ from recomputed {tallies}")
    return problems
