"""Property checks over boxes, seeded fuzzing, and the reference scenario run.

Each inequality is tracked per box as a PropertyResult with an exact slack.
A result is "asserted" when the inequality is claimed on the box's domain, so
a violation is a genuine finding that aborts a fuzz run with a witness; it is
"observed" when the inequality is only being measured outside its domain.

Domains: "general" is any valid box; "oneway_slice" restricts to mixtures of
the eight zero-bit named boxes and d0_1 .. d3_1; "chsh16" to mixtures of all
sixteen named boxes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .boxes import Box, box_to_json_obj, enumerate_deterministic, format_fraction, mix
from .cost import facet_bound, find_distinct_decompositions, optimal_cost
from .generators import (
    FamilySpec,
    canonical,
    canonical_names,
    isotropic,
    no_signaling_vertices,
    quantum_box,
    sample,
)
from .measures import chsh, signal, uncertainty, unpredictability

DOMAINS = ("general", "oneway_slice", "chsh16")

PROPERTY_IDS = (
    "S_LE_C",
    "S_2I_GE_C",
    "I_GE_HALF_ETA",
    "S_2U_GE_C",
    "U_GE_HALF_ETA",
    "OW_BOUND",
    "NONUNIQUE_DECOMP",
    "MIX_COST",
    "MIX_SIGNAL",
)

# Per-box result keys in emission order.
_CHECK_KEYS = (
    "S_LE_C",
    "S_2I_GE_C.formula",
    "S_2I_GE_C.per_party",
    "I_GE_HALF_ETA.formula",
    "I_GE_HALF_ETA.per_party",
    "S_2U_GE_C.u_A",
    "S_2U_GE_C.u_B",
    "U_GE_HALF_ETA.u_A",
    "U_GE_HALF_ETA.u_B",
    "OW_BOUND.u_A",
    "OW_BOUND.u_B",
)


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


def _result(
    property_id: str,
    slack: Fraction,
    strictness: str,
    variant: str | None,
    box: Box,
) -> PropertyResult:
    holds = slack >= 0
    return PropertyResult(
        property_id=property_id,
        holds=holds,
        slack=slack,
        strictness=strictness,
        variant=variant,
        witness=None if holds else box,
    )


def _property_results(
    box: Box, domain: str, c: Fraction, s: Fraction
) -> tuple[PropertyResult, ...]:
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}, expected one of {DOMAINS}")
    in_hull = domain in ("oneway_slice", "chsh16")
    eta = c - s
    i_formula = unpredictability(box, "formula")
    i_per_party = unpredictability(box, "per_party")
    unc = uncertainty(box)
    results = [_result("S_LE_C", eta, "asserted", None, box)]
    for variant, value in (("formula", i_formula), ("per_party", i_per_party)):
        strictness = "asserted" if in_hull else "observed"
        results.append(_result("S_2I_GE_C", s + 2 * value - c, strictness, variant, box))
    for variant, value in (("formula", i_formula), ("per_party", i_per_party)):
        strictness = "asserted" if in_hull else "observed"
        results.append(_result("I_GE_HALF_ETA", value - eta / 2, strictness, variant, box))
    party_values = (("u_A", unc.u_a), ("u_B", unc.u_b))
    for variant, value in party_values:
        if variant == "u_A":
            strictness = "asserted" if in_hull else "observed"
        else:
            strictness = "asserted" if domain == "chsh16" else "observed"
        results.append(_result("S_2U_GE_C", s + 2 * value - c, strictness, variant, box))
    for variant, value in party_values:
        if variant == "u_A":
            strictness = "asserted" if in_hull else "observed"
        else:
            strictness = "asserted" if domain == "chsh16" else "observed"
        results.append(_result("U_GE_HALF_ETA", value - eta / 2, strictness, variant, box))
    ow_strictness = "asserted" if s == 0 else "observed"
    for variant, value in party_values:
        results.append(_result("OW_BOUND", value - c / 2, ow_strictness, variant, box))
    return tuple(results)


def check_box(box: Box, domain: str = "general") -> tuple[PropertyResult, ...]:
    """All per-box inequality results at the box's exact cost."""
    return _property_results(box, domain, optimal_cost(box), signal(box).s)


def _signed_pattern(box: Box) -> Fraction:
    e = [box.expectation(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return e[0] + e[1] - e[2] + e[3]


def _closed_form_cost(box: Box) -> Fraction:
    # Valid on mixtures of the 16 named boxes: every named box meets the
    # signed pattern at exactly 2 + 2 * cost_bits, and no deterministic box
    # beats that trade-off, so the optimum is linear in the pattern.
    return (_signed_pattern(box) - 2) / 2


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


def fuzz(spec: FamilySpec, count: int, lp_every: int = 100) -> FindingsReport:
    """Sample count boxes from the family spec, check every inequality,
    abort on the first asserted violation.

    On the two mixture families the cost comes from the closed form, with
    the full program re-solved on the first five boxes and every lp_every-th
    as a cross-check.  Setting CORRBOX_FUZZ_CORRUPT=1 replaces the first box
    with a two-bit exchange box and tightens the domain, which must trip an
    asserted violation; it exists to prove the harness can fail."""
    kind = spec.kind
    boxes = sample(spec, count)
    domain = _DOMAIN_OF_FAMILY[kind]
    closed_form = kind in ("chsh16_mixture", "oneway_slice")
    corrupted = os.environ.get("CORRBOX_FUZZ_CORRUPT") == "1"
    if corrupted and boxes:
        boxes[0] = _exchange_box()
        domain = "oneway_slice"
        closed_form = False
    tallies: dict[str, list[int]] = {key: [0, 0, 0] for key in _CHECK_KEYS}
    witnesses: list[PropertyResult] = []
    aborted = False
    checked = 0
    for index, box in enumerate(boxes):
        s = signal(box).s
        if closed_form:
            c = _closed_form_cost(box)
            if index < 5 or (lp_every > 0 and index % lp_every == 0):
                solved = optimal_cost(box)
                if solved != c:
                    raise RuntimeError(
                        f"closed-form cost {c} disagrees with program value "
                        f"{solved} on {kind} sample {index}"
                    )
        else:
            c = optimal_cost(box)
        results = _property_results(box, domain, c, s)
        checked += 1
        for r in results:
            tally = tallies[r.key]
            tally[0] += 1
            if r.holds:
                tally[1] += 1
            else:
                tally[2] += 1
                if r.strictness == "asserted":
                    witnesses.append(r)
        if any(
            not r.holds and r.strictness == "asserted" for r in results
        ):
            aborted = True
            break
    return FindingsReport(
        family=kind,
        seed=spec.seed,
        samples=count,
        checked=checked,
        aborted=aborted,
        corrupted=corrupted,
        per_property={key: tuple(v) for key, v in tallies.items()},
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
    from .generators import canonical_deterministic

    rows = []
    for index, name in enumerate(canonical_names()[:16]):
        det = canonical_deterministic(name)
        box = det.as_box()
        pattern = _signed_pattern(box)
        lam = chsh(box).lambda_max
        s = signal(box).s
        c = optimal_cost(box)
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
    box = canonical("pr")
    c_full = optimal_cost(box, "full256")
    c_16 = optimal_cost(box, "chsh16")
    s = signal(box).s
    i_formula = unpredictability(box, "formula")
    i_per_party = unpredictability(box, "per_party")
    unc = uncertainty(box)
    results = _property_results(box, "chsh16", c_full, s)
    half = Fraction(1, 2)
    expectations = [
        (s == 0, "signal 0"),
        (c_full == 1, "full256 cost 1"),
        (c_16 == 1, "chsh16 cost 1"),
        (c_full - s == 1, "deficit 1"),
        (i_formula == half and i_per_party == half, "unpredictability 1/2"),
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
        "s": format_fraction(s),
        "c_full256": format_fraction(c_full),
        "c_chsh16": format_fraction(c_16),
        "eta": format_fraction(c_full - s),
        "i_formula": format_fraction(i_formula),
        "i_per_party": format_fraction(i_per_party),
        "u_a": format_fraction(unc.u_a),
        "u_b": format_fraction(unc.u_b),
        "results": [_result_json(r) for r in results],
    }


def _mixture_grid(failures: list[str]) -> dict:
    pairs = (("d0_1", "d2_1"), ("d0_1", "d3_1"))
    grids = {}
    for left_name, right_name in pairs:
        left = canonical(left_name)
        right = canonical(right_name)
        rows = []
        for k in range(11):
            p = Fraction(k, 10)
            if p == 0:
                box = right
            elif p == 1:
                box = left
            else:
                box = mix([(p, left), (1 - p, right)])
            c_full = optimal_cost(box, "full256")
            c_16 = optimal_cost(box, "chsh16")
            s = signal(box).s
            weighted_cost = Fraction(1)  # both parts cost exactly one bit
            weighted_signal = Fraction(1)  # both parts signal at full strength
            mix_cost = PropertyResult(
                "MIX_COST",
                holds=c_full <= weighted_cost,
                slack=weighted_cost - c_full,
                strictness="asserted",
            )
            mix_signal = PropertyResult(
                "MIX_SIGNAL",
                holds=s <= weighted_signal,
                slack=weighted_signal - s,
                strictness="asserted",
            )
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
                    "eta": format_fraction(c_full - s),
                    "results": [_result_json(mix_cost), _result_json(mix_signal)],
                }
            )
        grids[f"{left_name}+{right_name}"] = rows
    return grids


def _noise_decompositions(failures: list[str]) -> dict:
    from .cost import decomposition_to_json_obj

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
    result = PropertyResult(
        "NONUNIQUE_DECOMP",
        holds=holds,
        slack=Fraction(0),
        strictness="asserted",
    )
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
    from .cost import NotInHull

    rows = []
    for k in range(11):
        v = Fraction(k, 10)
        box = isotropic(v)
        c = optimal_cost(box, "full256")
        lower_bound = facet_bound(box)
        expected = max(Fraction(0), 2 * v - 1)
        if c != expected:
            failures.append(f"isotropic_sweep v={v}: cost {c} != {expected}")
        if lower_bound != expected:
            failures.append(f"isotropic_sweep v={v}: facet bound not tight")
        chsh16: str | dict
        if v >= Fraction(1, 2):
            hull_cost = optimal_cost(box, "chsh16")
            chsh16 = {"c": format_fraction(hull_cost)}
            if hull_cost != expected:
                failures.append(f"isotropic_sweep v={v}: hull cost {hull_cost}")
        else:
            try:
                optimal_cost(box, "chsh16")
            except NotInHull:
                chsh16 = "not-in-hull"
            else:
                failures.append(f"isotropic_sweep v={v}: unexpectedly in hull")
                chsh16 = "unexpected"
        rows.append(
            {
                "v": format_fraction(v),
                "c": format_fraction(c),
                "lower_bound": format_fraction(lower_bound),
                "chsh16": chsh16,
            }
        )
    return rows


def _tsirelson(failures: list[str]) -> dict:
    import math

    from .cost import NotInHull
    from .generators import TSIRELSON_ANGLES

    box = quantum_box(TSIRELSON_ANGLES, 10**6)
    lam = chsh(box).lambda_max
    c = optimal_cost(box, "full256")
    lam_err = abs(float(lam) - 2 * math.sqrt(2))
    cost_err = abs(float(c) - (math.sqrt(2) - 1))
    if lam_err > 4e-6:
        failures.append(f"tsirelson: lambda_max off by {lam_err}")
    if cost_err > 3e-6:
        failures.append(f"tsirelson: cost off by {cost_err}")
    try:
        optimal_cost(box, "chsh16")
    except NotInHull:
        in_hull = False
    else:
        in_hull = True
    if in_hull:
        failures.append("tsirelson: box unexpectedly in the 16-box hull")
    return {
        "lambda_max": format_fraction(lam),
        "lambda_max_float": float(lam),
        "c": format_fraction(c),
        "c_float": float(c),
        "s": format_fraction(signal(box).s),
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
