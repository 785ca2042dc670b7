"""Per-box analysis, property checks, seeded fuzzing, and the reference
scenario run.

analyze(box) is measures.Analysis at the box's exact cost C: every other
per-box quantity (CHSH report, signal, eta = C - s, both unpredictability
variants, uncertainty) is read from the box on first use, so each is computed
at most once whoever asks for it: the property table, the sweep and the
reference scenario here, and the CLI report through cost.CostReport.

Each inequality is a row of _PROPERTIES, and _slack_numerators gives every
row's slack as one integer: a linear form in the numerators of
(s, i_formula, i_per_party, u_a, u_b) over the box's denominator
(measures._numerators) and in C as an integer pair.  The sign of a slack is
one integer comparison, which is all fuzz tallies: it scores each box from
the kernels' integers alone.  A PropertyResult, with its exact slack, is
built from the same forms only where it is reported: by check_box, by the
reference scenario, and for the witnesses of a fuzz box with a failing row,
the only box fuzz builds an Analysis for.  A result is "asserted" when the
inequality is claimed on the box's domain, so a violation is a genuine
finding that aborts a fuzz run with a witness; it is "observed" when the
inequality is only being measured outside its domain.

Every decision about C is cost's.  The reference scenario takes a box's
chsh16 answer from the C analyze read (cost._hull_cost), one table read per
box, and a box outside the hull where it expects one inside is a failed
expectation; fuzz's cross-check is cost._prove_cost.

Domains: "general" is any valid box; "oneway_slice" restricts to mixtures of
the eight zero-bit named boxes and d0_1 .. d3_1; "chsh16" to mixtures of all
sixteen named boxes.  On both, C equals the facet bound
max(0, (lambda_max - 2) / 2), a lower bound on every box: each named box has
the signed CHSH term t2 = F = 2 + 2 * (its cost bits) and |t_k| <= 2 for the
other three, so a mixture has lambda_max = F and its own decomposition costs
(F - 2) / 2, the bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .boxes import (
    Box,
    MixingTable,
    box_to_json_obj,
    enumerate_deterministic,
    format_fraction,
    mix,
    mix_ints,
)
from .cost import (
    _cost_numerator,
    _hull_cost,
    _prove_cost,
    decomposition_to_json_obj,
    find_distinct_decompositions,
    optimal_cost,
)
from .generators import (
    TSIRELSON_ANGLES,
    FamilySpec,
    canonical,
    canonical_deterministic,
    canonical_names,
    draw,
    isotropic,
    no_signaling_vertices,
    quantum_box,
)
from .measures import Analysis, _numerators, _residuals, _signal_values, _signed_pattern
from .measures import chsh, signal

DOMAINS = ("general", "oneway_slice", "chsh16")


def analyze(box: Box) -> Analysis:
    """The box with its exact cost over the 256 deterministic strategies."""
    return Analysis(box, optimal_cost(box))


@dataclass(frozen=True)
class PropertyResult:
    property_id: str
    holds: bool
    slack: Fraction
    strictness: str  # "asserted" or "observed"
    variant: str | None = None
    witness: Box | None = None

    @property
    def key(self) -> str:
        if self.variant is None:
            return self.property_id
        return f"{self.property_id}.{self.variant}"


_HULLS = ("oneway_slice", "chsh16")
# Domains column of OW_BOUND: asserted on every box that does not signal.
_SILENT = None

# The tracked inequalities in emission order: (id, variant, divisor, domains
# where asserted).  _slack_numerators gives each row's slack as an integer
# numerator over its divisor times the denominators of the box and of C; the
# inequality holds when the slack is nonnegative.
_PROPERTIES = (
    ("S_LE_C", None, 1, DOMAINS),  # eta = C - s
    ("S_2I_GE_C", "formula", 1, _HULLS),  # s + 2 I - C
    ("S_2I_GE_C", "per_party", 1, _HULLS),
    ("I_GE_HALF_ETA", "formula", 2, _HULLS),  # I - eta / 2
    ("I_GE_HALF_ETA", "per_party", 2, _HULLS),
    ("S_2U_GE_C", "u_A", 1, _HULLS),  # s + 2 U - C
    ("S_2U_GE_C", "u_B", 1, ("chsh16",)),
    ("U_GE_HALF_ETA", "u_A", 2, _HULLS),  # U - eta / 2
    ("U_GE_HALF_ETA", "u_B", 2, ("chsh16",)),
    ("OW_BOUND", "u_A", 2, _SILENT),  # U - C / 2
    ("OW_BOUND", "u_B", 2, _SILENT),
)

# Per-box result keys in emission order.
_CHECK_KEYS = tuple(
    pid if variant is None else f"{pid}.{variant}" for pid, variant, _, _ in _PROPERTIES
)


def _slack_numerators(
    x: tuple[int, ...], den: int, c_num: int, c_den: int
) -> tuple[int, ...]:
    """Each row's slack times its divisor, den and c_den, in integers, for
    x = (s, i_formula, i_per_party, u_a, u_b) over den and C = c_num / c_den
    with c_den > 0.  Its sign is the row's verdict, the same for every
    positive multiple of (c_num, c_den)."""
    s, i_formula, i_per_party, u_a, u_b = x
    c = c_num * den
    s *= c_den
    twice = 2 * c_den
    # s + 2 I - C is also twice I - eta / 2, and s + 2 U - C twice U - eta / 2
    i_f = s + twice * i_formula - c
    i_p = s + twice * i_per_party - c
    s_ua = s + twice * u_a - c
    s_ub = s + twice * u_b - c
    ow_a, ow_b = twice * u_a - c, twice * u_b - c
    return c - s, i_f, i_p, i_f, i_p, s_ua, s_ub, s_ua, s_ub, ow_a, ow_b


def _property_results(analysis: Analysis, domain: str) -> tuple[PropertyResult, ...]:
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    x, c = analysis.numerators, analysis.c
    den = analysis.box.den * c.denominator
    slacks = _slack_numerators(x, analysis.box.den, c.numerator, c.denominator)
    silent = x[0] == 0
    results = []
    for row, slack in zip(_PROPERTIES, slacks):
        property_id, variant, divisor, asserted_in = row
        holds = slack >= 0
        asserted = silent if asserted_in is _SILENT else domain in asserted_in
        results.append(
            PropertyResult(
                property_id=property_id,
                holds=holds,
                slack=Fraction(slack, den * divisor),
                strictness="asserted" if asserted else "observed",
                variant=variant,
                witness=None if holds else analysis.box,
            )
        )
    return tuple(results)


def check_box(box: Box, domain: str = "general") -> tuple[PropertyResult, ...]:
    """All per-box inequality results at the box's exact cost."""
    return _property_results(analyze(box), domain)


def _exchange_box() -> Box:
    # Each party outputs the other's setting: two bits of communication.
    return enumerate_deterministic()[83].as_box()


@dataclass(frozen=True)
class FindingsReport:
    """Tallies of one fuzz run; aborted is True when an asserted inequality
    failed, and the failing results (with witness boxes) are in witnesses."""

    family: str
    seed: int
    samples: int
    checked: int
    aborted: bool
    corrupted: bool
    per_property: dict[str, tuple[int, int, int]]  # key -> (checked, held, violated)
    witnesses: tuple[PropertyResult, ...]

    def to_json_obj(self) -> dict:
        per = {
            key: {"checked": c, "held": h, "violated": v}
            for key, (c, h, v) in self.per_property.items()
        }
        return {
            "format": "findings-v1",
            "family": self.family,
            "seed": self.seed,
            "samples": self.samples,
            "checked": self.checked,
            "aborted": self.aborted,
            "corrupted": self.corrupted,
            "per_property": per,
            "violating_witnesses": [
                {
                    "property": r.property_id,
                    "variant": r.variant,
                    "strictness": r.strictness,
                    "slack": format_fraction(r.slack),
                    "box": box_to_json_obj(r.witness),
                }
                for r in self.witnesses
                if r.witness is not None
            ],
        }


_DOMAIN_OF_FAMILY = {
    "chsh16_mixture": "chsh16",
    "oneway_slice": "oneway_slice",
    "general": "general",
    "no_signaling": "general",
}


# fuzz proves C by a two-phase solve on boxes 0..4 and every _LP_EVERY-th.
_LP_EVERY = 100


def fuzz(spec: FamilySpec, count: int) -> FindingsReport:
    """Check every inequality on the first count boxes of the family spec,
    drawn one at a time, and abort on the first asserted violation.

    Each box is scored in integers: C as the dual-vertex table's numerator
    over 2 den, the measures' kernels, and the signs of _slack_numerators,
    which are all the tallies need.  An Analysis and its PropertyResults are
    built only for a box with a failing row.  C is proven on the first five
    boxes and every _LP_EVERY-th by a two-phase solve (cost._prove_cost).
    Setting CORRBOX_FUZZ_CORRUPT=1 replaces the first box with a two-bit
    exchange box and tightens the domain, which must trip an asserted
    violation; it exists to prove the harness can fail."""
    kind = spec.kind
    domain = _DOMAIN_OF_FAMILY[kind]
    corrupted = os.environ.get("CORRBOX_FUZZ_CORRUPT") == "1"
    if corrupted:
        domain = "oneway_slice"
    violated = [0] * len(_PROPERTIES)
    witnesses: list[PropertyResult] = []
    aborted = False
    checked = 0
    for index, box in enumerate(draw(spec, count)):
        if corrupted and index == 0:
            box = _exchange_box()
        c_num, c_den = _cost_numerator(box), 2 * box.den
        if index < 5 or index % _LP_EVERY == 0:
            _prove_cost(box, Fraction(c_num, c_den), f"{kind} sample {index}")
        x = _numerators(_signal_values(box), _residuals(box))
        slacks = _slack_numerators(x, box.den, c_num, c_den)
        checked += 1
        if min(slacks) >= 0:
            continue
        for row, slack in enumerate(slacks):
            if slack < 0:
                violated[row] += 1
        results = _property_results(Analysis(box, Fraction(c_num, c_den)), domain)
        witnesses = [r for r in results if not r.holds and r.strictness == "asserted"]
        if witnesses:
            aborted = True
            break
    return FindingsReport(
        family=kind,
        seed=spec.seed,
        samples=count,
        checked=checked,
        aborted=aborted,
        corrupted=corrupted,
        per_property={
            key: (checked, checked - v, v) for key, v in zip(_CHECK_KEYS, violated)
        },
        witnesses=tuple(witnesses),
    )


# -- reference scenario run -------------------------------------------------


def _result_json(r: PropertyResult) -> dict:
    return {
        "property": r.property_id,
        "variant": r.variant,
        "strictness": r.strictness,
        "holds": r.holds,
        "slack": format_fraction(r.slack),
    }


def _named_box_table(failures: list[str]) -> list[dict]:
    names = canonical_names()[:16]
    dets = [canonical_deterministic(name) for name in names]
    rows = []
    for index, (name, det) in enumerate(zip(names, dets)):
        a = analyze(det.as_box())
        pattern = Fraction(_signed_pattern(a.box), a.box.den)
        lam, s, c = a.chsh.lambda_max, a.s, a.c
        one_bit = index >= 8
        expected_pattern = 4 if one_bit else 2
        expected_cost = 1 if one_bit else 0
        expected_s = Fraction(1 if one_bit else 0)
        row = {
            "name": name,
            "id": det.id,
            "signed_pattern": format_fraction(pattern),
            "lambda_max": format_fraction(lam),
            "cost_bits": det.cost_bits,
            "c": format_fraction(c),
            "direction": det.direction.value,
            "s": format_fraction(s),
        }
        rows.append(row)
        if pattern != expected_pattern:
            failures.append(f"named_box_table: {name} signed pattern {pattern}")
        if lam != expected_pattern:
            failures.append(f"named_box_table: {name} lambda_max {lam}")
        if det.cost_bits != expected_cost or c != expected_cost:
            failures.append(f"named_box_table: {name} cost {det.cost_bits}/{c}")
        if s != expected_s:
            failures.append(f"named_box_table: {name} signal {s}")
        expected_direction = "none" if not one_bit else ("AtoB" if index < 12 else "BtoA")
        if det.direction.value != expected_direction:
            failures.append(f"named_box_table: {name} direction {det.direction.value}")
    return rows


def _census(failures: list[str]) -> dict:
    counts = {"none": 0, "AtoB": 0, "BtoA": 0, "both": 0}
    for det in enumerate_deterministic():
        counts[det.direction.value] += 1
    expected = {"none": 16, "AtoB": 48, "BtoA": 48, "both": 144}
    if counts != expected:
        failures.append(f"census: {counts} != {expected}")
    return {"total": 256, "by_direction": counts}


def _vertex_section(failures: list[str]) -> dict:
    vertices = no_signaling_vertices()
    lams = [chsh(v).lambda_max for v in vertices]
    locals_count = sum(1 for lam in lams if lam == 2)
    pr_count = sum(1 for lam in lams if lam == 4)
    if len(vertices) != 24 or locals_count != 16 or pr_count != 8:
        failures.append(
            f"no_signaling_vertices: {len(vertices)} vertices, "
            f"{locals_count} local, {pr_count} pattern-4"
        )
    if any(signal(v).s != 0 for v in vertices):
        failures.append("no_signaling_vertices: a vertex signals")
    return {"count": len(vertices), "local": locals_count, "pattern_4": pr_count}


def _pr_panel(failures: list[str]) -> dict:
    a = analyze(canonical("pr"))
    c_16 = _hull_cost(a.box, a.c)
    unc = a.uncertainty
    results = _property_results(a, "chsh16")
    half = Fraction(1, 2)
    expectations = [
        (a.s == 0, "signal 0"),
        (a.c == 1, "full256 cost 1"),
        (c_16 == 1, "chsh16 cost 1"),
        (a.eta == 1, "deficit 1"),
        (a.i_formula == half and a.i_per_party == half, "unpredictability 1/2"),
        (unc.u_a == half and unc.u_b == half, "uncertainty 1/2"),
        (all(r.holds for r in results), "all inequalities hold"),
        (
            all(
                r.slack == 0
                for r in results
                if r.property_id in ("I_GE_HALF_ETA", "U_GE_HALF_ETA", "OW_BOUND")
            ),
            "tight slacks",
        ),
    ]
    for ok, label in expectations:
        if not ok:
            failures.append(f"pr_panel: {label} failed")
    return {
        "s": format_fraction(a.s),
        "c_full256": format_fraction(a.c),
        "c_chsh16": "not-in-hull" if c_16 is None else format_fraction(c_16),
        "eta": format_fraction(a.eta),
        "i_formula": format_fraction(a.i_formula),
        "i_per_party": format_fraction(a.i_per_party),
        "u_a": format_fraction(unc.u_a),
        "u_b": format_fraction(unc.u_b),
        "results": [_result_json(r) for r in results],
    }


def _at_most(property_id: str, value: Fraction, bound: int) -> PropertyResult:
    """The asserted inequality value <= bound, with slack bound - value."""
    return PropertyResult(
        property_id, holds=value <= bound, slack=bound - value, strictness="asserted"
    )


def _mixture_grid(failures: list[str]) -> dict:
    pairs = (("d0_1", "d2_1"), ("d0_1", "d3_1"))
    boxes: list[Box] = []
    for left_name, right_name in pairs:
        table = MixingTable([canonical(left_name), canonical(right_name)])
        boxes += [mix_ints((k, 10 - k), table) for k in range(11)]
    analyses = map(analyze, boxes)
    grids = {}
    for left_name, right_name in pairs:
        rows = []
        for k, a in zip(range(11), analyses):
            p = Fraction(k, 10)
            c_full, s, c_16 = a.c, a.s, _hull_cost(a.box, a.c)
            # both parts cost exactly one bit and signal at full strength
            mix_cost = _at_most("MIX_COST", c_full, 1)
            mix_signal = _at_most("MIX_SIGNAL", s, 1)
            if c_full != 1 or c_16 != 1:
                failures.append(
                    f"mixture_grid {left_name}/{right_name} p={p}: cost "
                    f"{c_full}/{c_16} != 1"
                )
            expected_s = max(p, 1 - p) if right_name == "d2_1" else abs(2 * p - 1)
            if s != expected_s:
                failures.append(
                    f"mixture_grid {left_name}/{right_name} p={p}: signal {s}"
                )
            if not (mix_cost.holds and mix_signal.holds):
                failures.append(
                    f"mixture_grid {left_name}/{right_name} p={p}: convexity"
                )
            rows.append(
                {
                    "p": format_fraction(p),
                    "c": format_fraction(c_full),
                    "s": format_fraction(s),
                    "eta": format_fraction(a.eta),
                    "results": [_result_json(mix_cost), _result_json(mix_signal)],
                }
            )
        grids[f"{left_name}+{right_name}"] = rows
    return grids


def _noise_decompositions(failures: list[str]) -> dict:
    noise = canonical("noise")
    pair = find_distinct_decompositions(noise, "full256")
    dets = enumerate_deterministic()
    quartets = {"constants": (0, 15, 240, 255), "parity": (53, 58, 197, 202)}
    quarter = Fraction(1, 4)
    for label, ids in quartets.items():
        blend = mix([(quarter, dets[i].as_box()) for i in ids])
        if blend != noise:
            failures.append(f"noise_decompositions: {label} quartet misses noise")
        if any(dets[i].cost_bits != 0 for i in ids):
            failures.append(f"noise_decompositions: {label} quartet costs bits")
    section: dict = {
        "quartets": {
            label: [int(i) for i in ids] for label, ids in quartets.items()
        }
    }
    if pair is None:
        failures.append("noise_decompositions: no second optimal decomposition")
        section["found"] = False
        return section
    first, second = pair
    disjoint = not (set(first.weights) & set(second.weights))
    holds = first.cost == 0 and second.cost == 0 and set(first.weights) != set(second.weights)
    result = PropertyResult("NONUNIQUE_DECOMP", holds, Fraction(0), "asserted")
    if not holds:
        failures.append("noise_decompositions: decompositions not distinct at cost 0")
    if not disjoint:
        failures.append("noise_decompositions: supports overlap")
    section.update(
        {
            "found": True,
            "first": decomposition_to_json_obj(first),
            "second": decomposition_to_json_obj(second),
            "disjoint_supports": disjoint,
            "result": _result_json(result),
        }
    )
    return section


def _mixture_identity_check() -> dict:
    half = Fraction(1, 2)
    lhs = mix([(half, canonical("d0_0")), (half, canonical("d7_0"))])
    rhs = mix([(half, canonical("d3_0")), (half, canonical("d4_0"))])
    first_mismatch = None
    matches = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        same = lhs.setting_column(a, b) == rhs.setting_column(a, b)
        matches.append({"setting": [a, b], "equal": same})
        if not same and first_mismatch is None:
            first_mismatch = [a, b]
    return {
        "lhs": "(d0_0 + d7_0) / 2",
        "rhs": "(d3_0 + d4_0) / 2",
        "equal": first_mismatch is None,
        "first_mismatch_setting": first_mismatch,
        "per_setting": matches,
    }


def _isotropic_sweep(failures: list[str]) -> list[dict]:
    rows = []
    for v in (Fraction(k, 10) for k in range(11)):
        box = isotropic(v)
        a = analyze(box)
        hull_cost = _hull_cost(box, a.c)
        expected = max(Fraction(0), 2 * v - 1)
        if a.c != expected:
            failures.append(f"isotropic_sweep v={v}: cost {a.c} != {expected}")
        if a.lower_bound != expected:
            failures.append(f"isotropic_sweep v={v}: facet bound not tight")
        if v >= Fraction(1, 2) and hull_cost != expected:
            failures.append(f"isotropic_sweep v={v}: hull cost {hull_cost}")
        if v < Fraction(1, 2) and hull_cost is not None:
            failures.append(f"isotropic_sweep v={v}: unexpectedly in hull")
        rows.append(
            {
                "v": format_fraction(v),
                "c": format_fraction(a.c),
                "lower_bound": format_fraction(a.lower_bound),
                "chsh16": (
                    "not-in-hull" if hull_cost is None else {"c": format_fraction(hull_cost)}
                ),
            }
        )
    return rows


def _tsirelson(failures: list[str]) -> dict:
    a = analyze(quantum_box(TSIRELSON_ANGLES, 10**6))
    lam, c = a.chsh.lambda_max, a.c
    lam_err = abs(float(lam) - 2 * math.sqrt(2))
    cost_err = abs(float(c) - (math.sqrt(2) - 1))
    if lam_err > 4e-6:
        failures.append(f"tsirelson: lambda_max off by {lam_err}")
    if cost_err > 3e-6:
        failures.append(f"tsirelson: cost off by {cost_err}")
    in_hull = _hull_cost(a.box, a.c) is not None
    if in_hull:
        failures.append("tsirelson: box unexpectedly in the 16-box hull")
    return {
        "lambda_max": format_fraction(lam),
        "lambda_max_float": float(lam),
        "c": format_fraction(c),
        "c_float": float(c),
        "s": format_fraction(a.s),
        "chsh16": "not-in-hull" if not in_hull else "in-hull",
    }


def reproduce_paper() -> dict:
    """Recompute the reference scenario end to end; failures lists every
    expectation that did not hold (empty on a healthy build)."""
    failures: list[str] = []
    report = {
        "format": "repro-v1",
        "named_box_table": _named_box_table(failures),
        "census": _census(failures),
        "no_signaling_vertices": _vertex_section(failures),
        "pr_panel": _pr_panel(failures),
        "mixture_grid": _mixture_grid(failures),
        "noise_decompositions": _noise_decompositions(failures),
        "mixture_identity_check": _mixture_identity_check(),
        "isotropic_sweep": _isotropic_sweep(failures),
        "tsirelson": _tsirelson(failures),
    }
    report["failures"] = failures
    return report
