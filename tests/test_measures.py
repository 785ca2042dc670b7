from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbox.boxes import Box, enumerate_deterministic, mix
from corrbox.generators import (
    FAMILY_KINDS,
    FamilySpec,
    canonical,
    canonical_names,
    isotropic,
    quantum_box,
    sample,
)
from corrbox.measures import (
    Analysis,
    ChshReport,
    SignalReport,
    UncertaintyReport,
    chsh,
    lhv_admissible,
    signal,
    uncertainty,
    unpredictability,
)

from test_boxes import random_box


# -- the Fraction formulas the integer kernels replaced, kept as the oracle --


def oracle_chsh(box: Box) -> ChshReport:
    e = [box.expectation(a, b) for a in range(2) for b in range(2)]
    total = sum(e)
    values = tuple(abs(total - 2 * e[k]) for k in range(4))
    return ChshReport(values=values, lambda_max=max(values))


def oracle_facet_bound(box: Box) -> Fraction:
    return max(Fraction(0), (oracle_chsh(box).lambda_max - 2) / 2)


def oracle_signal(box: Box) -> SignalReport:
    s_a_to_b = max(abs(box.marginal_b(0, b) - box.marginal_b(1, b)) for b in range(2))
    s_b_to_a = max(abs(box.marginal_a(a, 0) - box.marginal_a(a, 1)) for a in range(2))
    return SignalReport(s_a_to_b=s_a_to_b, s_b_to_a=s_b_to_a, s=max(s_a_to_b, s_b_to_a))


def oracle_residuals(box: Box):
    settings_ = [(a, b) for a in range(2) for b in range(2)]
    return (
        [min(box.marginal_a(a, b), 1 - box.marginal_a(a, b)) for a, b in settings_],
        [min(box.marginal_b(a, b), 1 - box.marginal_b(a, b)) for a, b in settings_],
    )


def oracle_unpredictability(box: Box, variant: str) -> Fraction:
    res_a, res_b = oracle_residuals(box)
    if variant == "formula":
        return max(min(x, y) for x, y in zip(res_a, res_b))
    return max(max(res_a), max(res_b))


def oracle_uncertainty(box: Box) -> UncertaintyReport:
    res_a, res_b = oracle_residuals(box)
    delta = {
        ("A", 0): max(res_a[0], res_a[1]),
        ("A", 1): max(res_a[2], res_a[3]),
        ("B", 0): max(res_b[0], res_b[2]),
        ("B", 1): max(res_b[1], res_b[3]),
    }
    return UncertaintyReport(
        delta=delta,
        u_a=max(delta[("A", 0)], delta[("A", 1)]),
        u_b=max(delta[("B", 0)], delta[("B", 1)]),
    )


family_boxes = st.builds(
    lambda family, seed: sample(FamilySpec(family, seed), 1)[0],
    st.sampled_from(FAMILY_KINDS),
    st.integers(0, 2**32),
)
# Four angles rationalized to large denominator bounds: cells over a common
# denominator far past 64 bits.
quantum_boxes = st.builds(
    quantum_box,
    st.tuples(*[st.floats(-4.0, 4.0, allow_nan=False)] * 4),
    st.integers(10**6, 10**18),
)


class TestIntegerKernelsMatchTheFractionFormulas:
    @settings(max_examples=150)
    @given(box=st.one_of(family_boxes, quantum_boxes))
    def test_every_measure(self, box):
        expected_chsh = oracle_chsh(box)
        assert chsh(box) == expected_chsh
        assert chsh(box).facet_bound == oracle_facet_bound(box)
        assert signal(box) == oracle_signal(box)
        for variant in ("formula", "per_party"):
            assert unpredictability(box, variant) == oracle_unpredictability(box, variant)
        assert uncertainty(box) == oracle_uncertainty(box)
        assert lhv_admissible(box) == (
            oracle_signal(box).s == 0 and expected_chsh.lambda_max <= 2
        )

    @settings(max_examples=60)
    @given(box=st.one_of(family_boxes, quantum_boxes), c=st.fractions(0, 2))
    def test_analysis_fields_and_numerators(self, box, c):
        a = Analysis(box, c)
        unc = oracle_uncertainty(box)
        expected = (
            oracle_signal(box).s,
            oracle_unpredictability(box, "formula"),
            oracle_unpredictability(box, "per_party"),
            unc.u_a,
            unc.u_b,
        )
        assert tuple(Fraction(n, box.den) for n in a.numerators) == expected
        assert a.chsh == oracle_chsh(box)
        assert a.lower_bound == oracle_facet_bound(box)
        assert a.signal == oracle_signal(box)
        assert a.s == expected[0]
        assert a.eta == c - expected[0]
        assert (a.i_formula, a.i_per_party) == expected[1:3]
        assert a.uncertainty == unc


class TestChsh:
    def test_pr_pattern(self):
        report = chsh(canonical("pr"))
        assert report.values == (0, 0, 4, 0)
        assert report.lambda_max == 4

    def test_named_boxes_saturate(self):
        for index, name in enumerate(canonical_names()[:16]):
            expected = 2 if index < 8 else 4
            assert chsh(canonical(name)).lambda_max == expected, name

    def test_matches_direct_formula(self):
        rng = random.Random(13)
        for _ in range(30):
            box = random_box(rng)
            e = [box.expectation(a, b) for a in range(2) for b in range(2)]
            total = sum(e)
            report = chsh(box)
            for k in range(4):
                assert report.values[k] == abs(total - 2 * e[k])

    def test_algebraic_ceiling(self):
        rng = random.Random(14)
        for _ in range(30):
            report = chsh(random_box(rng))
            assert report.lambda_max <= 4

    def test_sign_reversal_covered(self):
        # |.| makes each value cover the functional and its negation, so the
        # max over 4 values scans all 8 signed facets
        noise = canonical("noise")
        assert chsh(noise).lambda_max == 0


class TestSignal:
    def test_deterministic_boxes(self):
        for det in enumerate_deterministic():
            s = signal(det.as_box())
            if det.cost_bits == 0:
                assert s.s == 0, f"id {det.id}"
            else:
                assert s.s == 1, f"id {det.id}"

    def test_directions_separate(self):
        # d0_1 sends a toward B only
        report = signal(canonical("d0_1"))
        assert report.s_a_to_b == 1
        assert report.s_b_to_a == 0

    def test_mixture_convexity(self):
        rng = random.Random(23)
        for _ in range(20):
            x, y = random_box(rng), random_box(rng)
            w = Fraction(rng.randint(0, 8), 8)
            blended = mix([(w, x), (1 - w, y)])
            bound = w * signal(x).s + (1 - w) * signal(y).s
            assert signal(blended).s <= bound

    def test_pr_silent(self):
        assert signal(canonical("pr")).s == 0


class TestUnpredictability:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            unpredictability(canonical("pr"), "sum")

    def test_pr_half(self):
        box = canonical("pr")
        assert unpredictability(box, "formula") == Fraction(1, 2)
        assert unpredictability(box, "per_party") == Fraction(1, 2)

    def test_deterministic_zero(self):
        for det in enumerate_deterministic()[::17]:
            box = det.as_box()
            assert unpredictability(box, "formula") == 0
            assert unpredictability(box, "per_party") == 0

    def test_formula_below_per_party(self):
        rng = random.Random(29)
        for _ in range(40):
            box = random_box(rng)
            assert unpredictability(box, "formula") <= unpredictability(
                box, "per_party"
            )

    def test_matches_direct_formula(self):
        rng = random.Random(31)
        for _ in range(30):
            box = random_box(rng)
            res_a = {
                (a, b): min(box.marginal_a(a, b), 1 - box.marginal_a(a, b))
                for a in range(2)
                for b in range(2)
            }
            res_b = {
                (a, b): min(box.marginal_b(a, b), 1 - box.marginal_b(a, b))
                for a in range(2)
                for b in range(2)
            }
            assert unpredictability(box, "formula") == max(
                min(res_a[k], res_b[k]) for k in res_a
            )
            assert unpredictability(box, "per_party") == max(
                list(res_a.values()) + list(res_b.values())
            )
            report = uncertainty(box)
            for x in range(2):
                assert report.delta["A", x] == max(res_a[x, 0], res_a[x, 1])
                assert report.delta["B", x] == max(res_b[0, x], res_b[1, x])

    def test_range(self):
        rng = random.Random(30)
        for _ in range(40):
            value = unpredictability(random_box(rng), "formula")
            assert 0 <= value <= Fraction(1, 2)


class TestUncertainty:
    def test_pr_half_everywhere(self):
        report = uncertainty(canonical("pr"))
        assert report.u_a == Fraction(1, 2)
        assert report.u_b == Fraction(1, 2)
        assert all(v == Fraction(1, 2) for v in report.delta.values())

    def test_delta_keys(self):
        report = uncertainty(canonical("noise"))
        assert set(report.delta) == {("A", 0), ("A", 1), ("B", 0), ("B", 1)}

    def test_u_is_max_over_settings(self):
        rng = random.Random(37)
        for _ in range(30):
            box = random_box(rng)
            report = uncertainty(box)
            assert report.u_a == max(report.delta["A", 0], report.delta["A", 1])
            assert report.u_b == max(report.delta["B", 0], report.delta["B", 1])

    def test_per_party_equals_max_of_u(self):
        rng = random.Random(38)
        for _ in range(30):
            box = random_box(rng)
            report = uncertainty(box)
            assert unpredictability(box, "per_party") == max(report.u_a, report.u_b)

    def test_formula_below_each_party(self):
        rng = random.Random(39)
        for _ in range(30):
            box = random_box(rng)
            report = uncertainty(box)
            value = unpredictability(box, "formula")
            assert value <= report.u_a and value <= report.u_b


class TestLhvAdmissible:
    def test_local_deterministic(self):
        for det in enumerate_deterministic():
            assert lhv_admissible(det.as_box()) == (det.cost_bits == 0), f"id {det.id}"

    def test_isotropic_threshold(self):
        assert lhv_admissible(isotropic(Fraction(1, 2)))
        assert not lhv_admissible(isotropic(Fraction(5, 8)))

    def test_signaling_excluded(self):
        box = canonical("d0_1")
        assert not lhv_admissible(box)
