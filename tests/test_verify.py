from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrbox.generators as generators
import corrbox.measures as measures
import corrbox.verify as verify
from corrbox.boxes import (
    box_from_json_obj,
    enumerate_deterministic,
    mix,
    relabel,
    relabeling_group,
)
from corrbox.cost import facet_bound, optimal_cost
from corrbox.generators import (
    FAMILY_KINDS,
    FamilySpec,
    canonical,
    canonical_deterministic,
    canonical_names,
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

        monkeypatch.setattr(measures, "chsh", counted("chsh", chsh))
        monkeypatch.setattr(measures, "signal", counted("signal", signal))
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
            assert facet_bound(box) == optimal_cost(box)


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
        # _LP_EVERY = 1 re-solves the program on every sample; a facet bound
        # that missed the program value would raise
        monkeypatch.setattr(verify, "_LP_EVERY", 1)
        report = fuzz(FamilySpec("chsh16_mixture", 6), 8)
        assert not report.aborted

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
