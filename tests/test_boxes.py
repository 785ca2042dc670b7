from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrbox.boxes import (
    BadWeights,
    Box,
    Direction,
    MixingTable,
    NegativeEntry,
    NotNormalized,
    _group_by_permutation,
    box_from_json_obj,
    box_from_table,
    box_to_json_obj,
    cell_index,
    classify,
    enumerate_deterministic,
    is_no_signaling,
    mix,
    mix_ints,
    relabel,
    relabeling_group,
)
from corrbox.generators import (
    FamilySpec,
    _mixture_table,
    canonical,
    canonical_names,
    isotropic,
    no_signaling_vertices,
    sample,
)


def random_box(rng: random.Random) -> Box:
    cells = []
    for _ in range(4):
        raw = [rng.randint(1, 1000) for _ in range(4)]
        total = sum(raw)
        cells.extend(Fraction(r, total) for r in raw)
    return Box(tuple(cells))


class TestCellIndex:
    def test_bijection(self):
        seen = set()
        for a in range(2):
            for b in range(2):
                for oa in range(2):
                    for ob in range(2):
                        seen.add(cell_index(a, b, oa, ob))
        assert seen == set(range(16))

    def test_column_layout(self):
        # column of setting (a,b) occupies 4*(2a+b) .. +3
        assert cell_index(1, 0, 0, 0) == 8
        assert cell_index(0, 1, 1, 1) == 7
        assert cell_index(1, 1, 1, 0) == 14


class TestBoxValidation:
    def test_negative_entry(self):
        cells = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]
        with pytest.raises(NegativeEntry):
            Box(tuple(cells + [Fraction(1, 4)] * 12))

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            Box(tuple([Fraction(1, 3)] * 16))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            box_from_table([0.25] * 16)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            box_from_table([True, False, False, False] * 4)
        box = enumerate_deterministic()[0].as_box()
        with pytest.raises(TypeError):
            mix([(True, box)])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            Box(tuple([Fraction(1, 4)] * 12))

    def test_strings_accepted(self):
        box = box_from_table(["1/4"] * 16)
        assert box.p[0] == Fraction(1, 4)


# Four setting columns, each four nonnegative weights over their own total.
box_columns = st.lists(
    st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any),
    min_size=4,
    max_size=4,
)


def box_from_columns(columns) -> Box:
    return Box(tuple(Fraction(w, sum(c)) for c in columns for w in c))


class TestRepresentation:
    @given(columns=box_columns, k=st.integers(2, 10**6))
    def test_scaled_numerators_give_the_same_box(self, columns, k):
        box = box_from_columns(columns)
        scaled = Box.from_numerators([k * n for n in box.num], k * box.den)
        assert scaled == box
        assert hash(scaled) == hash(box)
        assert scaled.p == box.p
        assert (scaled.num, scaled.den) == (box.num, box.den)

    @given(columns=box_columns)
    def test_lowest_terms_and_fraction_view(self, columns):
        box = box_from_columns(columns)
        assert box.den > 0
        assert math.gcd(box.den, *box.num) == 1
        assert box.p == tuple(Fraction(w, sum(c)) for c in columns for w in c)
        assert Box.from_numerators(box.num, box.den) == box

    @given(columns=box_columns)
    def test_json_round_trip(self, columns):
        box = box_from_columns(columns)
        back = box_from_json_obj(box_to_json_obj(box))
        assert back == box and back.p == box.p

    def test_equality_follows_the_cells(self):
        noise = Box.from_numerators([1] * 16, 4)
        assert noise == box_from_table(["1/4"] * 16)
        assert noise != Box.from_numerators([1, 0, 0, 0] * 4, 1)
        assert len({noise, box_from_table([Fraction(1, 4)] * 16)}) == 1

    def test_immutable(self):
        box = Box.from_numerators([1] * 16, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.den = 8  # type: ignore[misc]

    def test_integer_validation(self):
        with pytest.raises(NegativeEntry, match="entry 3 is negative: -1/2"):
            Box.from_numerators([1, 1, 1, -1] + [1] * 12, 2)
        with pytest.raises(NotNormalized, match="column 1 sums to 5/4, expected 1"):
            Box.from_numerators([1] * 4 + [2, 1, 1, 1] + [1] * 8, 4)
        with pytest.raises(ValueError, match="positive"):
            Box.from_numerators([0] * 16, 0)
        with pytest.raises(ValueError, match="16 entries"):
            Box.from_numerators([1] * 4, 1)

    def test_mix_ints_matches_mix(self):
        dets = enumerate_deterministic()
        half = mix_ints((1, 1), (dets[0].as_box(), dets[255].as_box()))
        parts = [dets[3].as_box(), dets[77].as_box(), half]
        weights = (5, 0, 7)
        expected = mix([(Fraction(w, 12), part) for w, part in zip(weights, parts)])
        assert mix_ints(weights, parts) == expected


class TestMarginals:
    def test_against_direct_sums(self):
        rng = random.Random(101)
        for _ in range(25):
            box = random_box(rng)
            for a in range(2):
                for b in range(2):
                    col = box.setting_column(a, b)
                    assert box.marginal_a(a, b) == col[0] + col[1]
                    assert box.marginal_b(a, b) == col[0] + col[2]
                    expected = col[0] - col[1] - col[2] + col[3]
                    assert box.expectation(a, b) == expected


class TestMix:
    def test_two_point_mixture(self):
        dets = enumerate_deterministic()
        left, right = dets[0].as_box(), dets[255].as_box()
        out = mix([(Fraction(1, 3), left), (Fraction(2, 3), right)])
        for i in range(16):
            assert out.p[i] == Fraction(1, 3) * left.p[i] + Fraction(2, 3) * right.p[i]

    def test_empty_rejected(self):
        with pytest.raises(BadWeights):
            mix([])

    def test_negative_weight_rejected(self):
        box = enumerate_deterministic()[0].as_box()
        with pytest.raises(BadWeights):
            mix([(Fraction(3, 2), box), (Fraction(-1, 2), box)])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(BadWeights, match="weights sum to 0"):
            mix_ints((0, 0), [canonical("pr"), canonical("noise")])

    def test_wrong_total_rejected(self):
        box = enumerate_deterministic()[0].as_box()
        with pytest.raises(BadWeights):
            mix([(Fraction(1, 2), box)])

    # Canonical, isotropic and sampled general boxes have different
    # denominators, and zero weights are kept in the table's lcm.
    mix_parts = st.one_of(
        st.sampled_from(canonical_names()).map(canonical),
        st.fractions(min_value=0, max_value=1, max_denominator=60).map(isotropic),
        st.integers(0, 10**6).map(lambda seed: sample(FamilySpec("general", seed), 1)[0]),
    )
    mix_terms = st.lists(
        st.tuples(st.one_of(st.just(0), st.integers(1, 65536)), mix_parts),
        min_size=1,
        max_size=6,
    ).filter(lambda terms: any(w for w, _ in terms))

    @given(terms=mix_terms)
    def test_mix_ints_is_the_fraction_mixture(self, terms):
        total = sum(w for w, _ in terms)
        expected = Box(
            tuple(sum(Fraction(w, total) * part.p[i] for w, part in terms) for i in range(16))
        )
        box = mix_ints([w for w, _ in terms], [part for _, part in terms])
        assert (box.num, box.den) == (expected.num, expected.den)

    def test_mix_ints_needs_one_weight_per_part(self):
        table = MixingTable([canonical("pr"), canonical("noise")])
        with pytest.raises(BadWeights, match="3 weights for 2 parts"):
            mix_ints((1, 1, 1), table)
        with pytest.raises(BadWeights, match="empty"):
            MixingTable([])


def fraction_mixture(weights, parts) -> Box:
    """The mixture computed cell by cell in Fractions, the oracle for mix_ints."""
    total = sum(weights)
    return Box(
        tuple(
            sum(Fraction(w, total) * part.p[i] for w, part in zip(weights, parts))
            for i in range(16)
        )
    )


class TestSparseMixingTable:
    """Mixtures of sparse parts, which leave most cells at 0 and may share
    none, through fresh and cached tables."""

    def test_disjoint_supports(self):
        # d0_0 and d7_0 never share a cell: every cell is touched by exactly
        # one of them or by neither.
        parts = [canonical("d0_0"), canonical("d7_0")]
        touched = [sum(1 for part in parts if part.num[i]) for i in range(16)]
        assert sorted(set(touched)) == [0, 1]
        for weights in ((1, 1), (3, 0), (0, 5), (65536, 1)):
            box = mix_ints(weights, parts)
            assert box == fraction_mixture(weights, parts)

    def test_no_signaling_table_scales_deterministic_parts(self):
        parts = no_signaling_vertices()
        table = _mixture_table("no_signaling")
        assert table.den == 2 and len(table) == 24
        assert (table.matrix == 2).any()
        rng = random.Random(14)
        for _ in range(20):
            weights = [rng.randint(0, 9) for _ in parts]
            weights[rng.randrange(24)] += 1
            assert mix_ints(weights, table) == fraction_mixture(weights, parts)

    @pytest.mark.parametrize("name", ("d3_1", "pr", "noise"))
    def test_single_part(self, name):
        part = canonical(name)
        table = MixingTable([part])
        assert len(table) == 1
        for weight in (1, 7):
            assert mix_ints((weight,), table) == part == fraction_mixture((weight,), [part])

    def test_cached_table_reused_with_different_weights(self):
        parts = [canonical(name) for name in canonical_names()[:16]]
        table = _mixture_table("chsh16_mixture")
        rng = random.Random(41)
        for _ in range(20):
            weights = [rng.randint(0, 65536) for _ in parts]
            weights[0] += 1
            box = mix_ints(weights, table)
            assert box == mix_ints(weights, parts) == fraction_mixture(weights, parts)

    def test_count_mismatch_on_a_cached_table(self):
        table = _mixture_table("oneway_slice")
        assert len(table) == 12
        with pytest.raises(BadWeights, match="11 weights for 12 parts"):
            mix_ints([1] * 11, table)
        with pytest.raises(BadWeights, match="13 weights for 12 parts"):
            mix_ints([1] * 13, table)


class TestMixingMatrix:
    """mix_ints is one product of the weights with the table's matrix, in
    int64 below a mixture denominator of 2**63 and in Python integers from
    there."""

    def test_python_integers_from_a_denominator_of_2_63(self):
        part = canonical("d0_0")
        assert mix_ints((2**62, 2**62), [part, part]) == part

    def test_int64_just_below_2_63(self):
        parts = [canonical("d0_0"), canonical("d7_0")]
        weights = (2**62, 2**62 - 1)
        assert mix_ints(weights, parts) == fraction_mixture(weights, parts)

    def test_table_of_a_large_denominator_holds_python_integers(self):
        part = Box.from_numerators([2**64 - 1, 1, 0, 0] * 4, 2**64)
        parts = [part, canonical("noise")]
        table = MixingTable(parts)
        assert table.den == 2**64 and table.matrix.dtype == object
        for weights in ((1, 0), (3, 5)):
            assert mix_ints(weights, table) == fraction_mixture(weights, parts)

    def test_negative_weight(self):
        pr, noise = canonical("pr"), canonical("noise")
        with pytest.raises(BadWeights, match="negative weight -1"):
            mix_ints((2, -1), [pr, noise])
        # Equal parts would hide the negative weight in a valid box.
        with pytest.raises(BadWeights, match="negative weight -1"):
            mix_ints((2, -1), [pr, pr])

    @pytest.mark.parametrize(
        "weights", ((0.5, 0.5), (1.0, 1.0), (1, 0.5), (Fraction(1, 2), Fraction(1, 2)))
    )
    def test_inexact_or_fractional_weights(self, weights):
        with pytest.raises(TypeError):
            mix_ints(weights, [canonical("pr"), canonical("noise")])

    @pytest.mark.parametrize("kind", ("chsh16_mixture", "oneway_slice", "no_signaling"))
    def test_cached_tables_are_read_only(self, kind):
        matrix = _mixture_table(kind).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 5


class TestDeterministic:
    def test_ids_and_count(self):
        dets = enumerate_deterministic()
        assert len(dets) == 256
        for i, det in enumerate(dets):
            assert det.id == i

    def test_id_packing(self):
        det = enumerate_deterministic()[16 * 5 + 3]
        assert det.out_a == (0, 1, 0, 1)
        assert det.out_b == (0, 0, 1, 1)

    def test_direction_census(self):
        counts = {d: 0 for d in Direction}
        for det in enumerate_deterministic():
            counts[det.direction] += 1
        assert counts[Direction.NONE] == 16
        assert counts[Direction.A_TO_B] == 48
        assert counts[Direction.B_TO_A] == 48
        assert counts[Direction.BOTH] == 144

    def test_cost_matches_direction(self):
        for det in enumerate_deterministic():
            expected = {
                Direction.NONE: 0,
                Direction.A_TO_B: 1,
                Direction.B_TO_A: 1,
                Direction.BOTH: 2,
            }[det.direction]
            assert det.cost_bits == expected, f"id {det.id}"

    def test_classify_reads_dependence(self):
        def det_for(out_a, out_b):
            return next(
                d
                for d in enumerate_deterministic()
                if d.out_a == out_a and d.out_b == out_b
            )

        # A's table varies with b  ->  a bit must flow B to A
        assert classify(det_for((0, 1, 0, 0), (0, 0, 0, 0))) == (1, Direction.B_TO_A)
        assert classify(det_for((0, 0, 0, 0), (0, 0, 1, 0))) == (1, Direction.A_TO_B)
        assert classify(det_for((0, 1, 1, 0), (1, 0, 1, 1))) == (2, Direction.BOTH)

    def test_classify_matches_stored_fields(self):
        for det in enumerate_deterministic():
            assert classify(det) == (det.cost_bits, det.direction), det.id

    def test_as_box_is_pointmass(self):
        rng = random.Random(7)
        for _ in range(20):
            det = enumerate_deterministic()[rng.randrange(256)]
            box = det.as_box()
            for a in range(2):
                for b in range(2):
                    k = 2 * a + b
                    assert box.prob(a, b, det.out_a[k], det.out_b[k]) == 1

    def test_local_iff_no_signaling(self):
        for det in enumerate_deterministic():
            assert is_no_signaling(det.as_box()) == (det.cost_bits == 0), f"id {det.id}"


class TestRelabelingGroup:
    def test_group_size(self):
        group = relabeling_group()
        assert len(group) == 128

    def test_identity_present(self):
        identity = tuple(range(16))
        assert any(r.permutation() == identity for r in relabeling_group())

    def test_inverse_round_trip(self):
        rng = random.Random(31)
        group = relabeling_group()
        for _ in range(30):
            r = group[rng.randrange(len(group))]
            box = random_box(rng)
            back = relabel(relabel(box, r), r.inverse())
            assert back == box

    def test_relabel_keeps_no_signaling(self):
        pr_like = enumerate_deterministic()[0].as_box()
        for r in relabeling_group():
            assert is_no_signaling(relabel(pr_like, r))

    def test_order_is_pinned(self):
        # The permutations in group order, one byte per cell: the order of
        # the 128 candidates with duplicates dropped.  cost._dual_vertices
        # expands its orbits in this order, so its row order rests on it.
        perms = [r.permutation() for r in relabeling_group()]
        assert list(_group_by_permutation()) == perms
        digest = hashlib.sha256(bytes(v for perm in perms for v in perm)).hexdigest()
        assert digest == "f6c60c321fa17dfbbfff318c0b8d56e090a9b1aa79db94c2d4451aabf4caea5a"


class TestJson:
    def test_round_trip(self):
        rng = random.Random(50)
        for _ in range(20):
            box = random_box(rng)
            assert box_from_json_obj(box_to_json_obj(box)) == box

    def test_format_tag(self):
        box = enumerate_deterministic()[0].as_box()
        obj = box_to_json_obj(box)
        assert obj["format"] == "box-v1"
        assert len(obj["p"]) == 4 and all(len(col) == 4 for col in obj["p"])

    def test_integers_and_strings_accepted(self):
        cells = [[1, 0, 0, 0], ["1/2", "0.5", 0, "0/3"]] + [["1/4"] * 4] * 2
        box = box_from_json_obj({"format": "box-v1", "p": cells})
        assert box.p[:8] == (1, 0, 0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            box_from_json_obj({"format": "box-v1", "p": [["1/4"] * 4] * 3})
        with pytest.raises(ValueError):
            box_from_json_obj({"format": "box-v2", "p": [["1/4"] * 4] * 4})
        with pytest.raises(ValueError):
            box_from_json_obj(["not", "a", "dict"])
