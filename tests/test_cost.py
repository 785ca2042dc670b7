from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrbox.cost as cost
from corrbox.boxes import enumerate_deterministic, mix
from corrbox.cost import (
    BadDimension,
    NotInHull,
    communication_cost,
    decomposition_to_json_obj,
    eta_star,
    find_distinct_decompositions,
    optimal_cost,
)
from corrbox.generators import FamilySpec, canonical, isotropic, sample
from corrbox.measures import chsh, signal

from _reference_lp import solve_reference
from test_boxes import random_box

F = Fraction


class TestAnchors:
    def test_deterministic_boxes_cost_their_bits(self):
        rng = random.Random(61)
        for _ in range(12):
            det = enumerate_deterministic()[rng.randrange(256)]
            report = communication_cost(det.as_box())
            assert report.c == det.cost_bits, f"id {det.id}"
            # a vertex of the strategy polytope decomposes only as itself
            assert report.decomposition.weights == {det.id: F(1)}

    def test_pr_costs_one_bit_in_both_bases(self):
        box = canonical("pr")
        for basis in ("full256", "chsh16"):
            report = communication_cost(box, basis)
            assert report.c == 1, basis
            assert report.eta == 1, basis
            assert report.s == 0, basis
        assert communication_cost(box).lower_bound == 1

    def test_noise_is_free(self):
        report = communication_cost(canonical("noise"))
        assert report.c == 0
        assert report.eta == 0
        assert report.decomposition.cost == 0

    def test_noise_outside_small_hull(self):
        with pytest.raises(NotInHull):
            communication_cost(canonical("noise"), "chsh16")

    def test_isotropic_values(self):
        assert communication_cost(isotropic(F(3, 4))).c == F(1, 2)
        assert communication_cost(isotropic(F(1, 4))).c == 0
        with pytest.raises(NotInHull):
            communication_cost(isotropic(F(1, 4)), "chsh16")

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            communication_cost(canonical("pr"), "full512")


class TestReportConsistency:
    def test_fields_cohere(self):
        rng = random.Random(71)
        for _ in range(8):
            box = random_box(rng)
            report = communication_cost(box)
            assert report.eta == report.c - report.s
            assert report.s == signal(box).s
            lam = chsh(box).lambda_max
            assert report.lower_bound == max(F(0), (lam - 2) / 2)
            assert report.lower_bound <= report.c

    def test_decomposition_mixes_back(self):
        spec = FamilySpec("chsh16_mixture", 5)
        for box in sample(spec, 6):
            report = communication_cost(box, "chsh16")
            assert report.decomposition.as_mixture() == box
        for box in sample(FamilySpec("general", 6), 4):
            report = communication_cost(box)
            assert report.decomposition.as_mixture() == box

    def test_weights_are_a_distribution(self):
        rng = random.Random(72)
        for _ in range(6):
            report = communication_cost(random_box(rng))
            weights = report.decomposition.weights
            assert all(w > 0 for w in weights.values())
            assert sum(weights.values()) == 1

    def test_json_form(self):
        report = communication_cost(canonical("pr"))
        obj = decomposition_to_json_obj(report.decomposition)
        assert obj["basis"] == "full256"
        assert obj["cost"] == "1/1"
        assert sum(F(v) for v in obj["weights"].values()) == 1


class TestAgainstReferenceSolver:
    def _cost_program(self, box, ids):
        dets = enumerate_deterministic()
        rows = [
            [dets[i].as_box().p[cell] for i in ids] for cell in range(16)
        ]
        cost = [F(dets[i].cost_bits) for i in ids]
        return rows, list(box.p), cost

    def test_small_basis_cross_check(self):
        from corrbox.generators import canonical_det_ids

        ids = list(canonical_det_ids())
        for box in sample(FamilySpec("chsh16_mixture", 9), 3):
            rows, rhs, cost = self._cost_program(box, ids)
            status, value, _ = solve_reference(rows, rhs, cost)
            assert status == "optimal"
            assert communication_cost(box, "chsh16").c == value

    def test_full_basis_cross_check(self):
        box = sample(FamilySpec("general", 10), 1)[0]
        rows, rhs, cost = self._cost_program(box, list(range(256)))
        status, value, _ = solve_reference(rows, rhs, cost)
        assert status == "optimal"
        assert communication_cost(box).c == value


class TestEtaStar:
    def test_pr_values(self):
        box = canonical("pr")
        assert eta_star(box, 2) == 0.0
        assert eta_star(box, 4) == -1.0

    def test_dimension_guard(self):
        box = canonical("pr")
        for d in (1, 0, -2):
            with pytest.raises(BadDimension):
                eta_star(box, d)


class TestDistinctDecompositions:
    def test_noise_has_disjoint_quartets(self):
        noise = canonical("noise")
        pair = find_distinct_decompositions(noise, "full256")
        assert pair is not None
        first, second = pair
        assert first.cost == 0 and second.cost == 0
        assert not (set(first.weights) & set(second.weights))
        assert first.as_mixture() == noise
        assert second.as_mixture() == noise

    def test_deterministic_repeat(self):
        noise = canonical("noise")
        assert find_distinct_decompositions(noise) == find_distinct_decompositions(noise)

    def test_vertex_has_unique_decomposition(self):
        det = enumerate_deterministic()[83]
        assert find_distinct_decompositions(det.as_box()) is None

    def test_small_hull_raises_outside(self):
        with pytest.raises(NotInHull):
            find_distinct_decompositions(canonical("noise"), "chsh16")


def _lcm_den(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v.denominator)
    return out


class TestValuePath:
    """optimal_cost (dual simplex from the cached start) against the
    two-phase communication_cost, and its dual certificate in integers."""

    @settings(max_examples=60)
    @given(
        family=st.sampled_from(
            ("general", "no_signaling", "chsh16_mixture", "oneway_slice")
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_value_and_dual_certificate(self, family, seed):
        box = sample(FamilySpec(family, seed), 1)[0]
        dets = enumerate_deterministic()
        for basis in ("full256", "chsh16"):
            try:
                expected = communication_cost(box, basis).c
            except NotInHull:
                with pytest.raises(NotInHull):
                    optimal_cost(box, basis)
                continue
            value = optimal_cost(box, basis)
            assert value == expected, basis
            y = cost._solve_cost(box, basis, warm=True)[0].certificate
            assert y is not None and len(y) == 16
            ly = _lcm_den(y)
            y_int = [int(v * ly) for v in y]
            for i in cost._system_for(basis).ids:
                column = dets[i].as_box().p  # a 0/1 indicator of the cells
                total = sum(yi for yi, cell in zip(y_int, column) if cell == 1)
                assert total <= dets[i].cost_bits * ly, (basis, i)
            lcm_p = _lcm_den(box.p)
            p_int = [int(v * lcm_p) for v in box.p]
            dot = sum(a * b for a, b in zip(y_int, p_int))
            assert dot * value.denominator == value.numerator * ly * lcm_p, basis

    def test_deterministic_boxes(self):
        for det in enumerate_deterministic()[::17]:
            assert optimal_cost(det.as_box()) == det.cost_bits, det.id

    def test_named_values_and_hull(self):
        assert optimal_cost(canonical("pr"), "chsh16") == 1
        assert optimal_cost(isotropic(F(3, 4))) == F(1, 2)
        with pytest.raises(NotInHull):
            optimal_cost(canonical("noise"), "chsh16")
        with pytest.raises(ValueError):
            optimal_cost(canonical("pr"), "full512")

    def test_bland_rule_gives_the_same_value(self, monkeypatch):
        boxes = sample(FamilySpec("general", 12), 4)
        expected = [optimal_cost(b) for b in boxes]
        monkeypatch.setattr(cost.lp, "_BLAND_AFTER", 0)
        assert [optimal_cost(b) for b in boxes] == expected

    def test_object_arithmetic_gives_the_same_value(self):
        # A repeated first row makes 17 rows, which the int64 rule refuses,
        # so the same warm solve runs on Python integers.
        system = cost._system_for("full256")
        assert system.prep.int_mode
        columns = system.prep.a_int
        prep = cost.lp._prepare_int01(np.vstack([columns, columns[:1]]), system.prep.col_cost)
        assert not prep.int_mode
        counts = [int(k) for k in prep.a_int.sum(axis=1)]
        start = cost.lp._start_state(prep, counts, prep.n)
        for box in sample(FamilySpec("no_signaling", 13), 3):
            rhs = box.num + box.num[:1]
            got, _ = cost.lp._solve_prepared(prep, rhs, box.den, start)
            assert got.value == optimal_cost(box)

    def test_start_state_is_shared_and_read_only(self):
        start = cost._system_for("full256").start
        assert not start.mat.flags.writeable
        before = (start.basis, start.delta, start.mat.tobytes())
        for box in sample(FamilySpec("general", 14), 3):
            optimal_cost(box)
        assert (start.basis, start.delta, start.mat.tobytes()) == before
