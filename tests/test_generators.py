from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrbox.boxes import box_to_json_obj, enumerate_deterministic, is_no_signaling, mix
from corrbox.generators import (
    FAMILY_KINDS,
    TSIRELSON_ANGLES,
    BadParameter,
    FamilySpec,
    UnknownName,
    canonical,
    canonical_det_ids,
    canonical_deterministic,
    canonical_names,
    isotropic,
    no_signaling_vertices,
    quantum_box,
    sample,
)
from corrbox.measures import chsh, signal

F = Fraction

# Frozen oracle: strategy ids of the 16 named boxes, derived by hand from
# their output tables and the id packing rule.
EXPECTED_IDS = (0, 48, 10, 202, 53, 245, 207, 255, 2, 206, 49, 253, 32, 138, 117, 223)


def signed_pattern(box):
    e = [box.expectation(a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    return e[0] + e[1] - e[2] + e[3]


class TestCanonicalNames:
    def test_order_and_length(self):
        names = canonical_names()
        assert len(names) == 18
        assert names[:8] == tuple(f"d{k}_0" for k in range(8))
        assert names[8:16] == tuple(f"d{k}_1" for k in range(8))
        assert names[16:] == ("pr", "noise")

    def test_frozen_id_table(self):
        assert canonical_det_ids() == EXPECTED_IDS

    def test_tables_round_trip_through_ids(self):
        dets = enumerate_deterministic()
        for name, expected in zip(canonical_names()[:16], EXPECTED_IDS):
            det = canonical_deterministic(name)
            assert det.id == expected, name
            assert canonical(name) == dets[expected].as_box(), name

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            canonical_deterministic("d8_0")
        with pytest.raises(UnknownName):
            canonical("tsirelson")

    def test_signed_patterns(self):
        for index, name in enumerate(canonical_names()[:16]):
            expected = 2 if index < 8 else 4
            assert signed_pattern(canonical(name)) == expected, name

    def test_costs_split_by_suffix(self):
        for index, name in enumerate(canonical_names()[:16]):
            det = canonical_deterministic(name)
            assert det.cost_bits == (0 if index < 8 else 1), name


class TestDerivedBoxes:
    def test_pr_is_even_mix(self):
        expected = mix(
            [(F(1, 2), canonical("d0_1")), (F(1, 2), canonical("d3_1"))]
        )
        assert canonical("pr") == expected

    def test_noise_uniform(self):
        noise = canonical("noise")
        assert all(x == F(1, 4) for x in noise.p)

    def test_pr_no_signaling_max_pattern(self):
        pr = canonical("pr")
        assert is_no_signaling(pr)
        assert chsh(pr).lambda_max == 4


class TestIsotropic:
    def test_endpoints(self):
        assert isotropic(0) == canonical("noise")
        assert isotropic(1) == canonical("pr")

    def test_linear_pattern(self):
        for k in range(11):
            v = F(k, 10)
            assert signed_pattern(isotropic(v)) == 4 * v

    def test_out_of_range(self):
        with pytest.raises(BadParameter):
            isotropic(F(-1, 10))
        with pytest.raises(BadParameter):
            isotropic(F(11, 10))

    def test_accepts_strings(self):
        assert isotropic("7/10") == isotropic(F(7, 10))

    def test_refuses_floats(self):
        # 0.7 as a float is 3152519739159347/4503599627370496, not 7/10.
        with pytest.raises(TypeError, match="floats are not accepted"):
            isotropic(0.7)

    def test_matches_the_rational_mixture(self):
        for v in (F(1, 3), F(7, 10), F(99, 100)):
            expected = mix([(v, canonical("pr")), (1 - v, canonical("noise"))])
            assert isotropic(v) == expected


class TestQuantumBox:
    def test_correlators_near_angle_difference_cosines(self):
        angles = (0.3, 1.1, 2.0, 2.9)
        box = quantum_box(angles, 10**6)
        for a in range(2):
            for b in range(2):
                expected = math.cos(angles[a] - angles[2 + b])
                err = abs(float(box.expectation(a, b)) - expected)
                assert err <= 1e-6, f"setting {(a, b)}: {err}"

    def test_preset_maximizes_chsh(self):
        box = quantum_box(TSIRELSON_ANGLES, 10**6)
        err = abs(float(chsh(box).lambda_max) - 2 * math.sqrt(2))
        assert err <= 4e-6, f"lambda_max off by {err}"

    def test_aligned_parties_correlate_perfectly(self):
        box = quantum_box((0.0, 0.0, 0.0, 0.0), 7)
        assert chsh(box).lambda_max == 2
        for a in range(2):
            for b in range(2):
                assert box.expectation(a, b) == 1

    def test_uniform_marginals(self):
        box = quantum_box((0.4, 0.9, 1.7, 2.2), 1000)
        for a in range(2):
            for b in range(2):
                assert box.marginal_a(a, b) == F(1, 2)
                assert box.marginal_b(a, b) == F(1, 2)
        assert is_no_signaling(box)

    def test_coarse_denominator_still_valid(self):
        box = quantum_box((0.123, 2.5, 0.77, 1.9), 1)
        assert sum(box.setting_column(0, 0)) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("position,name", enumerate(
        ("theta_a0", "theta_a1", "theta_b0", "theta_b1")
    ))
    def test_non_finite_angle_is_named(self, bad, position, name):
        angles = [0.1, 0.2, 0.3, 0.4]
        angles[position] = bad
        with pytest.raises(BadParameter, match=f"angle {name} must be a finite"):
            quantum_box(tuple(angles), 100)

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            quantum_box((0.1, 0.2, 0.3), 100)
        with pytest.raises(BadParameter):
            quantum_box((0.1, 0.2, 0.3, 0.4), 0)


class TestNoSignalingVertices:
    def test_count_and_split(self):
        vertices = no_signaling_vertices()
        assert len(vertices) == 24
        lams = [chsh(v).lambda_max for v in vertices]
        assert sum(1 for lam in lams if lam == 2) == 16
        assert sum(1 for lam in lams if lam == 4) == 8

    def test_all_distinct_and_silent(self):
        vertices = no_signaling_vertices()
        assert len({v.p for v in vertices}) == 24
        for v in vertices:
            assert is_no_signaling(v)
            assert signal(v).s == 0

    def test_pattern_boxes_have_uniform_marginals(self):
        for v in no_signaling_vertices():
            if chsh(v).lambda_max == 4:
                for a in range(2):
                    for b in range(2):
                        assert v.marginal_a(a, b) == F(1, 2)
                        assert v.marginal_b(a, b) == F(1, 2)


class TestSampling:
    def test_unknown_family(self):
        with pytest.raises(BadParameter):
            FamilySpec("quantumish", 0)

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_negative_seed(self, kind):
        # random.Random(-5) is random.Random(5): a negative seed would print
        # its own value over the boxes of its absolute value
        with pytest.raises(BadParameter, match="seed must be nonnegative, got -5"):
            FamilySpec(kind, -5)
        assert FamilySpec(kind, 0).seed == 0

    def test_negative_count(self):
        with pytest.raises(BadParameter):
            sample(FamilySpec("general", 0), -1)

    def test_deterministic_and_prefix_stable(self):
        for kind in ("general", "chsh16_mixture", "oneway_slice", "no_signaling"):
            spec = FamilySpec(kind, 123)
            first = sample(spec, 6)
            again = sample(spec, 6)
            assert first == again, kind
            assert sample(spec, 3) == first[:3], kind

    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(FAMILY_KINDS),
        seed=st.integers(0, 2**32),
        short=st.integers(0, 6),
        extra=st.integers(0, 6),
    )
    def test_prefix_property(self, kind, seed, short, extra):
        spec = FamilySpec(kind, seed)
        assert sample(spec, short + extra)[:short] == sample(spec, short)

    # sha256 over the box-v1 JSON of the first 300 boxes of seed 11, recorded
    # before the samplers built integer boxes: the sampling streams are pinned.
    SAMPLE_DIGESTS = {
        "general": "90df1d075d82eae3fb10d19373d0e1f446f1d40c549434d8487a9a7ead79212d",
        "chsh16_mixture": "7f169bbcd9cbe98e6310ba3cf2cb48aa9e2ae5b39dc5875495700e034f934ba8",
        "oneway_slice": "e49ac3aca06e95d0e987dfbcd535567d1e774b1c3dddac96584cb94896bd0956",
        "no_signaling": "aac925bdac97dad98e81654c8a2dacc7f6e0aca4ec014225a428d05f4a55a1f3",
    }

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_sampled_boxes_are_pinned(self, kind):
        digest = hashlib.sha256()
        for box in sample(FamilySpec(kind, 11), 300):
            digest.update(json.dumps(box_to_json_obj(box)).encode())
        assert digest.hexdigest() == self.SAMPLE_DIGESTS[kind]

    def test_seeds_differ(self):
        a = sample(FamilySpec("general", 1), 3)
        b = sample(FamilySpec("general", 2), 3)
        assert a != b

    def test_no_signaling_family_is_silent(self):
        for box in sample(FamilySpec("no_signaling", 77), 10):
            assert is_no_signaling(box)

    def test_oneway_family_signals_one_way_only(self):
        for box in sample(FamilySpec("oneway_slice", 78), 10):
            assert signal(box).s_b_to_a == 0

    def test_mixture_families_stay_in_hull(self):
        from corrbox.cost import communication_cost

        for box in sample(FamilySpec("chsh16_mixture", 79), 3):
            communication_cost(box, "chsh16")  # must not raise
