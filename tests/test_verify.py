from __future__ import annotations

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrbox.cost as cost
import corrbox.generators as generators
import corrbox.measures as measures
import corrbox.verify as verify
from corrbox.boxes import (
    Box,
    box_from_json_obj,
    box_to_json_obj,
    enumerate_deterministic,
    format_fraction,
    mix,
    relabel,
    relabeling_group,
)
from corrbox.cli import main
from corrbox.cost import optimal_cost
from corrbox.generators import (
    FAMILY_KINDS,
    FamilySpec,
    canonical,
    canonical_deterministic,
    canonical_names,
    draw,
    isotropic,
    quantum_box,
    sample,
)
from corrbox.measures import chsh, signal, uncertainty, unpredictability
from corrbox.verify import (
    DOMAINS,
    Analysis,
    FindingsReport,
    analyze,
    check_box,
    fuzz,
    reproduce_paper,
)

F = Fraction


def by_key(results):
    return {r.key: r for r in results}


class TestAnalysis:
    @pytest.mark.parametrize("family", FAMILY_KINDS)
    def test_fields_equal_the_standalone_measures(self, family):
        for box in sample(FamilySpec(family, 21), 6):
            a = analyze(box)
            assert a.box == box
            assert a.c == optimal_cost(box)
            assert a.chsh == chsh(box)
            assert a.signal == signal(box)
            assert a.s == signal(box).s
            assert a.eta == optimal_cost(box) - signal(box).s
            assert a.i_formula == unpredictability(box, "formula")
            assert a.i_per_party == unpredictability(box, "per_party")
            assert a.uncertainty == uncertainty(box)

    def test_each_field_is_computed_once_and_chsh_only_on_read(self, monkeypatch):
        calls = []

        def counted(name, fn):
            return lambda box: calls.append(name) or fn(box)

        # the integer kernels behind chsh, signal and the residuals
        monkeypatch.setattr(
            measures, "_chsh_values", counted("chsh", measures._chsh_values)
        )
        monkeypatch.setattr(
            measures, "_signal_values", counted("signal", measures._signal_values)
        )
        monkeypatch.setattr(
            measures, "_residuals", counted("residuals", measures._residuals)
        )
        a = Analysis(canonical("pr"), Fraction(1))
        for _ in range(2):
            verify._property_results(a, "chsh16")
        assert sorted(calls) == ["residuals", "signal"]
        for _ in range(2):
            a.chsh
        assert sorted(calls) == ["chsh", "residuals", "signal"]


# README's "Tracked inequalities": the domains where each per-box key is
# claimed, or "silent" for a claim on every box that does not signal.
_HULLS = {"oneway_slice", "chsh16"}
README_CLAIMS = {
    "S_LE_C": set(DOMAINS),
    "S_2I_GE_C.formula": _HULLS,
    "S_2I_GE_C.per_party": _HULLS,
    "I_GE_HALF_ETA.formula": _HULLS,
    "I_GE_HALF_ETA.per_party": _HULLS,
    "S_2U_GE_C.u_A": _HULLS,
    "S_2U_GE_C.u_B": {"chsh16"},
    "U_GE_HALF_ETA.u_A": _HULLS,
    "U_GE_HALF_ETA.u_B": {"chsh16"},
    "OW_BOUND.u_A": "silent",
    "OW_BOUND.u_B": "silent",
}


class TestRelabelingInvariance:
    """C, s, both unpredictability variants and the pair (U_A, U_B) do not
    depend on how inputs, outputs and parties are labelled (a party swap
    exchanges U_A and U_B)."""

    @settings(max_examples=40)
    @given(
        family=st.sampled_from(FAMILY_KINDS),
        seed=st.integers(0, 2**32),
        element=st.integers(0, len(relabeling_group()) - 1),
    )
    def test_measures_are_invariant(self, family, seed, element):
        box = sample(FamilySpec(family, seed), 1)[0]
        image = relabel(box, relabeling_group()[element])
        before, after = analyze(box), analyze(image)
        assert after.c == before.c
        assert after.s == before.s
        assert after.i_formula == before.i_formula
        assert after.i_per_party == before.i_per_party
        u_before = sorted((before.uncertainty.u_a, before.uncertainty.u_b))
        assert sorted((after.uncertainty.u_a, after.uncertainty.u_b)) == u_before


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("name,silent", [("pr", True), ("d0_1", False)])
def test_strictness_matches_readme(domain, name, silent):
    box = canonical(name)
    assert (signal(box).s == 0) == silent
    results = check_box(box, domain)
    assert [r.key for r in results] == list(README_CLAIMS)
    for r in results:
        claimed = README_CLAIMS[r.key]
        asserted = silent if claimed == "silent" else domain in claimed
        assert r.strictness == ("asserted" if asserted else "observed"), r.key


class TestFacetShortcut:
    def test_named_boxes_peak_on_the_signed_term(self):
        # t_k is the correlator sum with a minus on term k; lambda_max is
        # max |t_k|.  t2 = 2 + 2 * bits with every other |t_k| <= 2 makes
        # lambda_max = t2 on every mixture, where the facet bound is exact.
        for name in canonical_names()[:16]:
            det = canonical_deterministic(name)
            box = det.as_box()
            e = [box.expectation(a, b) for a in range(2) for b in range(2)]
            t = [sum(e) - 2 * e[k] for k in range(4)]
            assert t[2] in (2, 4) and t[2] == 2 + 2 * det.cost_bits, name
            assert all(abs(t[k]) <= 2 for k in (0, 1, 3)), name

    @pytest.mark.parametrize("family", ("chsh16_mixture", "oneway_slice"))
    def test_facet_bound_is_the_cost_on_mixtures(self, family):
        for box in sample(FamilySpec(family, 8), 30):
            assert chsh(box).facet_bound == optimal_cost(box) == optimal_cost(box, "chsh16")


class TestCheckBox:
    def test_pr_all_hold_with_tight_slacks(self):
        results = by_key(check_box(canonical("pr"), domain="chsh16"))
        assert all(r.holds for r in results.values())
        for key in (
            "I_GE_HALF_ETA.formula",
            "I_GE_HALF_ETA.per_party",
            "U_GE_HALF_ETA.u_A",
            "U_GE_HALF_ETA.u_B",
            "OW_BOUND.u_A",
            "OW_BOUND.u_B",
        ):
            assert results[key].slack == 0, key
        assert results["S_LE_C"].slack == 1  # eta of the pattern box

    def test_exchange_box_breaks_oneway_claims(self):
        box = enumerate_deterministic()[83].as_box()  # A outputs b, B outputs a
        results = by_key(check_box(box, domain="oneway_slice"))
        assert results["S_LE_C"].holds and results["S_LE_C"].slack == 1
        failing = {k for k, r in results.items() if not r.holds and r.strictness == "asserted"}
        assert failing == {
            "S_2I_GE_C.formula",
            "S_2I_GE_C.per_party",
            "I_GE_HALF_ETA.formula",
            "I_GE_HALF_ETA.per_party",
            "S_2U_GE_C.u_A",
            "U_GE_HALF_ETA.u_A",
        }
        assert results["I_GE_HALF_ETA.formula"].slack == F(-1, 2)
        assert results["I_GE_HALF_ETA.formula"].witness == box

    def test_equality_witness_mixture(self):
        box = mix(
            [
                (F(2, 5), canonical("d0_1")),
                (F(2, 5), canonical("d3_1")),
                (F(1, 5), canonical("d0_0")),
            ]
        )
        results = by_key(check_box(box, domain="oneway_slice"))
        assert results["S_LE_C"].slack == F(4, 5)  # s = 0, c = 4/5
        assert results["I_GE_HALF_ETA.formula"].slack == 0
        assert results["I_GE_HALF_ETA.formula"].holds

    def test_strictness_follows_domain(self):
        box = canonical("pr")
        general = by_key(check_box(box, domain="general"))
        oneway = by_key(check_box(box, domain="oneway_slice"))
        hull = by_key(check_box(box, domain="chsh16"))
        assert general["S_LE_C"].strictness == "asserted"
        assert general["I_GE_HALF_ETA.formula"].strictness == "observed"
        assert oneway["I_GE_HALF_ETA.formula"].strictness == "asserted"
        assert oneway["U_GE_HALF_ETA.u_A"].strictness == "asserted"
        assert oneway["U_GE_HALF_ETA.u_B"].strictness == "observed"
        assert hull["U_GE_HALF_ETA.u_B"].strictness == "asserted"
        # the box is silent, so the one-way bound is claimed in every domain
        assert general["OW_BOUND.u_A"].strictness == "asserted"

    def test_signaling_box_relaxes_ow(self):
        box = canonical("d0_1")
        results = by_key(check_box(box, domain="general"))
        assert results["OW_BOUND.u_A"].strictness == "observed"

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            check_box(canonical("pr"), domain="everything")


# The Fraction slacks the integer forms of verify._PROPERTIES replaced, kept
# as the oracle: key -> slack on an Analysis.
ORACLE_SLACKS = {
    "S_LE_C": lambda a: a.eta,
    "S_2I_GE_C.formula": lambda a: a.s + 2 * a.i_formula - a.c,
    "S_2I_GE_C.per_party": lambda a: a.s + 2 * a.i_per_party - a.c,
    "I_GE_HALF_ETA.formula": lambda a: a.i_formula - a.eta / 2,
    "I_GE_HALF_ETA.per_party": lambda a: a.i_per_party - a.eta / 2,
    "S_2U_GE_C.u_A": lambda a: a.s + 2 * a.uncertainty.u_a - a.c,
    "S_2U_GE_C.u_B": lambda a: a.s + 2 * a.uncertainty.u_b - a.c,
    "U_GE_HALF_ETA.u_A": lambda a: a.uncertainty.u_a - a.eta / 2,
    "U_GE_HALF_ETA.u_B": lambda a: a.uncertainty.u_b - a.eta / 2,
    "OW_BOUND.u_A": lambda a: a.uncertainty.u_a - a.c / 2,
    "OW_BOUND.u_B": lambda a: a.uncertainty.u_b - a.c / 2,
}


class TestSlackForms:
    @settings(max_examples=60)
    @given(
        family=st.sampled_from(FAMILY_KINDS),
        seed=st.integers(0, 2**32),
        c=st.fractions(0, 2),
        domain=st.sampled_from(DOMAINS),
    )
    def test_forms_equal_the_fraction_slacks(self, family, seed, c, domain):
        # any C in [0, 2], not only the box's own, so that rows fail too
        box = sample(FamilySpec(family, seed), 1)[0]
        a = Analysis(box, c)
        results = verify._property_results(a, domain)
        assert [r.key for r in results] == list(ORACLE_SLACKS)
        for r in results:
            expected = ORACLE_SLACKS[r.key](a)
            assert r.slack == expected, r.key
            assert r.holds == (expected >= 0), r.key
            assert r.witness == (None if r.holds else box), r.key

    @settings(max_examples=12)
    @given(
        family=st.sampled_from(FAMILY_KINDS),
        seed=st.integers(0, 2**32),
        count=st.integers(1, 12),
    )
    def test_fuzz_tallies_equal_results_rebuilt_box_by_box(self, family, seed, count):
        spec = FamilySpec(family, seed)
        domain = verify._DOMAIN_OF_FAMILY[family]
        tallies = {key: [0, 0, 0] for key in ORACLE_SLACKS}
        for box in sample(spec, count):
            for r in check_box(box, domain):
                tally = tallies[r.key]
                tally[0] += 1
                tally[1 if r.holds else 2] += 1
        report = fuzz(spec, count)
        assert report.checked == count and not report.aborted
        assert report.per_property == {key: tuple(t) for key, t in tallies.items()}

    @settings(max_examples=80)
    @given(
        box=st.one_of(
            st.builds(
                lambda family, seed: sample(FamilySpec(family, seed), 1)[0],
                st.sampled_from(FAMILY_KINDS),
                st.integers(0, 2**32),
            ),
            st.sampled_from(canonical_names()).map(canonical),
            st.fractions(0, 1).map(isotropic),
            st.builds(
                quantum_box,
                st.tuples(*[st.floats(-4, 4)] * 4),
                st.integers(1, 10**18),
            ),
        ),
        c=st.fractions(0, 2),
        k=st.integers(1, 10**9),
        domain=st.sampled_from(DOMAINS),
    )
    def test_signs_of_any_multiple_of_c_are_the_verdicts(self, box, c, k, domain):
        # fuzz's path: the kernels' integers and C as any positive multiple
        # of its reduced pair give the verdicts of the reported results
        x = measures._numerators(
            measures._signal_values(box), measures._residuals(box)
        )
        c_num, c_den = k * c.numerator, k * c.denominator
        slacks = verify._slack_numerators(x, box.den, c_num, c_den)
        a = Analysis(box, c)
        signs = [slack >= 0 for slack in slacks]
        assert signs == [r.holds for r in verify._property_results(a, domain)]
        assert signs == [oracle(a) >= 0 for oracle in ORACLE_SLACKS.values()]

    def test_signs_between_the_thresholds_of_paired_rows(self):
        # Paired rows (u_A / u_B, formula / per_party) change sign at different
        # C, and a drawn C rarely falls between the two: here every threshold
        # and every midpoint between neighbouring thresholds is tried, so a
        # form that reads the other row's quantity gets a wrong sign.
        boxes = sample(FamilySpec("general", 21), 6) + sample(FamilySpec("no_signaling", 21), 6)
        split = 0
        for box in boxes:
            zero = Analysis(box, F(0))
            s, u = zero.s, zero.uncertainty
            if u.u_a == u.u_b:
                continue
            points = sorted(
                {s, s + 2 * zero.i_formula, s + 2 * zero.i_per_party}
                | {s + 2 * u.u_a, s + 2 * u.u_b, 2 * u.u_a, 2 * u.u_b}
            )
            x = measures._numerators(measures._signal_values(box), measures._residuals(box))
            for c in points + [(lo + hi) / 2 for lo, hi in zip(points, points[1:])]:
                a = Analysis(box, c)
                slacks = verify._slack_numerators(x, box.den, c.numerator, c.denominator)
                expected = [oracle(a) for oracle in ORACLE_SLACKS.values()]
                assert len(slacks) == len(expected) == 11
                for key, got, want in zip(ORACLE_SLACKS, slacks, expected):
                    assert (got > 0) - (got < 0) == (want > 0) - (want < 0), (key, c)
                rows = dict(zip(ORACLE_SLACKS, expected))
                split += (rows["U_GE_HALF_ETA.u_A"] < 0) != (rows["U_GE_HALF_ETA.u_B"] < 0)
        assert split > 0  # some C falls between the u_A and u_B thresholds

    @pytest.mark.parametrize("family", ("chsh16_mixture", "oneway_slice"))
    def test_clean_hull_fuzz_builds_no_fraction_cells(self, monkeypatch, family):
        def unread(box):
            raise AssertionError("Box.p was read")

        def unbuilt(*args):
            raise AssertionError("a PropertyResult was built")

        monkeypatch.setattr(Box, "p", property(unread))
        monkeypatch.setattr(verify, "_property_results", unbuilt)
        # past one _LP_EVERY cross-check, so the LP path is covered too
        report = fuzz(FamilySpec(family, 9), verify._LP_EVERY + 1)
        assert not report.aborted and report.checked == verify._LP_EVERY + 1


class TestFuzz:
    def test_families_run_clean(self):
        for kind in ("general", "chsh16_mixture", "oneway_slice", "no_signaling"):
            report = fuzz(FamilySpec(kind, 2), 25)
            assert isinstance(report, FindingsReport)
            assert not report.aborted, kind
            assert report.checked == 25, kind
            for key, (checked, held, violated) in report.per_property.items():
                assert checked == 25, (kind, key)
                assert held + violated == checked, (kind, key)

    def test_asserted_never_violated_on_clean_run(self):
        report = fuzz(FamilySpec("oneway_slice", 3), 40)
        for key, (_, _, violated) in report.per_property.items():
            if key.startswith(("S_2I", "I_GE", "S_LE")):
                assert violated == 0, key

    def test_json_shape(self):
        report = fuzz(FamilySpec("chsh16_mixture", 4), 10)
        obj = report.to_json_obj()
        assert obj["format"] == "findings-v1"
        assert obj["family"] == "chsh16_mixture"
        assert obj["seed"] == 4
        assert obj["samples"] == 10
        assert obj["checked"] == 10
        assert obj["aborted"] is False
        assert obj["violating_witnesses"] == []
        assert set(obj["per_property"]["S_LE_C"]) == {"checked", "held", "violated"}

    def test_corruption_hook_aborts_with_witness(self, monkeypatch):
        monkeypatch.setenv("CORRBOX_FUZZ_CORRUPT", "1")
        report = fuzz(FamilySpec("general", 5), 10)
        assert report.corrupted
        assert report.aborted
        assert report.checked == 1
        assert report.witnesses
        obj = report.to_json_obj()
        witness = obj["violating_witnesses"][0]
        assert witness["strictness"] == "asserted"
        monkeypatch.delenv("CORRBOX_FUZZ_CORRUPT")
        # the serialized witness re-triggers the same violation on recheck
        box = box_from_json_obj(witness["box"])
        rechecked = check_box(box, domain="oneway_slice")
        keys = {
            f"{witness['property']}.{witness['variant']}"
            if witness["variant"]
            else witness["property"]
        }
        failing = {r.key for r in rechecked if not r.holds and r.strictness == "asserted"}
        assert keys <= failing

    def test_facet_bound_cross_check_runs(self, monkeypatch):
        # _LP_EVERY = 1 proves C on every sample: by the chsh16 feasibility
        # solve on a hull box, whose C is the form (F - 2) / 2, and by the
        # full256 program on a general one
        monkeypatch.setattr(verify, "_LP_EVERY", 1)
        bases = []
        solve, feasible = cost._solve_cost, cost.lp._feasible
        monkeypatch.setattr(cost, "_solve_cost", lambda *a: bases.append(a[1]) or solve(*a))
        monkeypatch.setattr(
            cost.lp, "_feasible", lambda *a: bases.append("chsh16") or feasible(*a)
        )
        assert not fuzz(FamilySpec("chsh16_mixture", 6), 8).aborted
        assert bases == ["chsh16"] * 8
        assert not fuzz(FamilySpec("general", 6), 3).aborted
        assert bases[8:] == ["full256"] * 3

    def test_cross_check_catches_a_wrong_table_value(self, monkeypatch):
        numerator = verify._cost_numerator
        monkeypatch.setattr(verify, "_cost_numerator", lambda box: numerator(box) + 1)
        for family in ("chsh16_mixture", "general"):
            pattern = f"dual-vertex table's .* on {family} sample 0$"
            with pytest.raises(RuntimeError, match=pattern):
                fuzz(FamilySpec(family, 6), 1)

    def test_aborting_run_draws_only_the_boxes_it_checked(self, monkeypatch):
        drawn = []
        real = generators._sample_general
        monkeypatch.setattr(
            generators, "_sample_general", lambda rng: drawn.append(1) or real(rng)
        )
        monkeypatch.setenv("CORRBOX_FUZZ_CORRUPT", "1")
        report = fuzz(FamilySpec("general", 5), 10)
        assert report.aborted and report.checked == 1
        assert len(drawn) == 1


class TestFuzzScoring:
    """fuzz scores a box from integers and builds an Analysis only for a box
    with a failing row."""

    @pytest.mark.parametrize("family", ("chsh16_mixture", "oneway_slice"))
    def test_clean_hull_fuzz_builds_no_analysis(self, capsys, monkeypatch, family):
        def unbuilt(*args):
            raise AssertionError("an Analysis was built")

        monkeypatch.setattr(verify, "Analysis", unbuilt)
        code = main(["fuzz", "--family", family, "--seed", "3", "--count", "101"])
        assert code == 0 and json.loads(capsys.readouterr().out)["checked"] == 101

    def test_one_analysis_per_failing_box(self, monkeypatch):
        spec = FamilySpec("general", 7)
        failing_boxes = sum(
            not all(r.holds for r in check_box(box, "general"))
            for box in sample(spec, 200)
        )
        built = []
        real = verify.Analysis
        monkeypatch.setattr(
            verify, "Analysis", lambda box, c: built.append(box) or real(box, c)
        )
        report = fuzz(spec, 200)
        assert not report.aborted
        # the golden run fails OW_BOUND rows, which a signaling box only observes
        assert report.per_property["OW_BOUND.u_A"][2] == 7
        assert report.per_property["OW_BOUND.u_B"][2] == 10
        assert len(built) == failing_boxes and len(set(built)) == failing_boxes

    def test_abort_at_a_later_box(self, monkeypatch):
        # oneway_slice boxes under the general family (so C is solved, not
        # the facet bound) in the oneway_slice domain, with the two-bit
        # exchange box planted at index k: the run checks k + 1 boxes
        k, count = 6, 12
        planted = enumerate_deterministic()[83].as_box()
        drawn = []

        def planted_draw(spec, n):
            assert (spec.kind, n) == ("general", count)
            for index, box in enumerate(draw(FamilySpec("oneway_slice", 5), n)):
                drawn.append(box)
                yield planted if index == k else box

        monkeypatch.setattr(verify, "draw", planted_draw)
        monkeypatch.setitem(verify._DOMAIN_OF_FAMILY, "general", "oneway_slice")
        report = fuzz(FamilySpec("general", 5), count)
        assert report.aborted and report.checked == k + 1
        assert len(drawn) == k + 1
        boxes = drawn[:k] + [planted]
        tallies = {key: [0, 0, 0] for key in ORACLE_SLACKS}
        for box in boxes:
            results = check_box(box, "oneway_slice")
            for r in results:
                tallies[r.key][0] += 1
                tallies[r.key][1 if r.holds else 2] += 1
            assert all(r.holds for r in results if r.strictness == "asserted") == (
                box is not planted
            )
        assert report.per_property == {key: tuple(t) for key, t in tallies.items()}
        expected = [
            {
                "property": r.property_id,
                "variant": r.variant,
                "strictness": "asserted",
                "slack": format_fraction(r.slack),
                "box": box_to_json_obj(planted),
            }
            for r in check_box(planted, "oneway_slice")
            if not r.holds and r.strictness == "asserted"
        ]
        witnesses = report.to_json_obj()["violating_witnesses"]
        assert json.dumps(witnesses, indent=2) == json.dumps(expected, indent=2)
        assert len(witnesses) == 6


@pytest.fixture(scope="module")
def report():
    return reproduce_paper()


class TestReproducePaper:
    def test_no_failures(self, report):
        assert report["failures"] == []

    def test_sections_present(self, report):
        for key in (
            "named_box_table",
            "census",
            "no_signaling_vertices",
            "pr_panel",
            "mixture_grid",
            "noise_decompositions",
            "mixture_identity_check",
            "isotropic_sweep",
            "tsirelson",
        ):
            assert key in report, key

    def test_named_table_shape(self, report):
        rows = report["named_box_table"]
        assert len(rows) == 16
        assert [r["cost_bits"] for r in rows] == [0] * 8 + [1] * 8

    def test_identity_check_fails_at_second_setting(self, report):
        section = report["mixture_identity_check"]
        assert section["equal"] is False
        assert section["first_mismatch_setting"] == [0, 1]

    def test_noise_section_disjoint(self, report):
        section = report["noise_decompositions"]
        assert section["found"] is True
        assert section["disjoint_supports"] is True
        assert set(section["quartets"]) == {"constants", "parity"}

    def test_tsirelson_section(self, report):
        section = report["tsirelson"]
        assert section["chsh16"] == "not-in-hull"
        assert abs(section["c_float"] - (2**0.5 - 1)) < 3e-6


# 2 sqrt(2) and sqrt(2), each less than 10**-30 below the root.
ROOT_8 = Fraction(math.isqrt(8 * 10**60), 10**30)
ROOT_2 = Fraction(math.isqrt(2 * 10**60), 10**30)
# 10**-20 off a tolerance: far past the root's error, far below a float's.
NUDGE = Fraction(1, 10**20)


class TestTsirelsonTolerance:
    """repro's Tsirelson check decides |lambda_max - 2 sqrt 2| <= 4/10**6
    and |C - (sqrt 2 - 1)| <= 3/10**6 exactly, at gaps no float resolves."""

    # quantity: (centre, tolerance)
    TARGETS = {"lambda_max": (ROOT_8, F(4, 10**6)), "cost": (ROOT_2 - 1, F(3, 10**6))}

    @staticmethod
    def failures(monkeypatch, lam, c):
        monkeypatch.setattr(
            verify, "analyze",
            lambda box: SimpleNamespace(
                box=box, c=c, s=Fraction(0), chsh=SimpleNamespace(lambda_max=lam)
            ),
        )
        failures = []
        verify._tsirelson(failures)
        return failures

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("quantity", ["lambda_max", "cost"])
    def test_edge_of_each_tolerance(self, monkeypatch, quantity, inside, side):
        root, tol = self.TARGETS[quantity]
        value = root + side * (tol - NUDGE if inside else tol + NUDGE)
        lam, c = (value, ROOT_2 - 1) if quantity == "lambda_max" else (ROOT_8, value)
        failures = self.failures(monkeypatch, lam, c)
        if inside:
            assert failures == []
        else:
            assert len(failures) == 1
            assert failures[0].startswith(f"tsirelson: {quantity} off by ")

    @pytest.mark.parametrize(
        "x,tol,n,near",
        [
            (F(0), F(3), 1, True),  # low end below -sqrt(n)
            (F(-1), F(1, 2), 1, False),  # whole interval below zero
            (F(3, 2), F(1, 2), 1, True),  # sqrt(1) on the low end
            (F(1, 2), F(1, 2), 1, True),  # sqrt(1) on the high end
            (F(2), F(1, 2), 4, True),
            (F(3), F(1, 2), 4, False),
        ],
    )
    def test_near_root(self, x, tol, n, near):
        assert verify._near_root(x, tol, n) is near
