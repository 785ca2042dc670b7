from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrbox.cost as cost
from corrbox.boxes import enumerate_deterministic, mix, mix_ints
from corrbox.cost import (
    BadDimension,
    NotInHull,
    communication_cost,
    decomposition_to_json_obj,
    eta_star,
    find_distinct_decompositions,
    optimal_cost,
    optimal_costs,
    optimal_decompositions,
)
from corrbox.generators import FAMILY_KINDS, FamilySpec, canonical, isotropic, sample
from corrbox.measures import chsh, signal
from corrbox.verify import reproduce_paper

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
        # Bland's rule takes the smallest index at every tie, the default
        # rule the largest pivot element: different paths, the same C.
        boxes = [box for kind in FAMILY_KINDS for box in sample(FamilySpec(kind, 12), 4)]
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
        system = cost._system_for("full256")
        start = system.start
        assert not start.mat.flags.writeable
        assert not start.reduced.flags.writeable
        # the cached row is the start basis's reduced costs, from scratch
        engine = cost.lp._Engine(system.prep, [0] * system.prep.m, 1, start)
        assert start.reduced.tolist() == engine._reduced(system.prep.col_cost).tolist()
        before = (start.basis, start.delta, start.mat.tobytes(), start.reduced.tobytes())
        for box in sample(FamilySpec("general", 14), 3):
            optimal_cost(box)
        after = (start.basis, start.delta, start.mat.tobytes(), start.reduced.tobytes())
        assert after == before


def _single_cost(box, basis):
    try:
        return optimal_cost(box, basis)
    except NotInHull:
        return None


def _start_bytes(start):
    return (
        start.basis,
        start.delta,
        start.inert,
        start.rows,
        start.mat.tobytes(),
        start.reduced.tobytes(),
    )


class TestWarmPath:
    """optimal_costs solves a sequence of boxes, each from the previous
    box's optimal basis: the same values as one optimal_cost per box."""

    @settings(max_examples=30)
    @given(
        draws=st.lists(
            st.tuples(st.sampled_from(FAMILY_KINDS), st.integers(0, 2**32)),
            min_size=2,
            max_size=6,
        ),
        outside=st.lists(st.fractions(0, F(49, 100)), min_size=3, max_size=3),
        basis=st.sampled_from(cost.BASIS_KINDS),
    )
    def test_path_equals_one_solve_per_box(self, draws, outside, basis):
        # isotropic boxes below 1/2 lie outside the chsh16 hull: first, in
        # the middle and last
        boxes = [sample(FamilySpec(family, seed), 1)[0] for family, seed in draws]
        first, middle, last = (isotropic(v) for v in outside)
        half = len(boxes) // 2
        path = [first, *boxes[:half], middle, *boxes[half:], last]
        expected = [_single_cost(box, basis) for box in path]
        assert list(optimal_costs(path, basis)) == expected
        outside_at = [0, half + 1, len(path) - 1]
        if basis == "chsh16":
            assert all(expected[i] is None for i in outside_at)
        else:
            assert None not in expected

    def test_path_leaves_every_start_unchanged(self, monkeypatch):
        system = cost._system_for("full256")
        starts = [system.start]
        made = [_start_bytes(system.start)]
        start_from = cost.lp._start_from

        def recorded(engine):
            start = start_from(engine)
            assert not start.mat.flags.writeable and not start.reduced.flags.writeable
            starts.append(start)
            made.append(_start_bytes(start))
            return start

        monkeypatch.setattr(cost.lp, "_start_from", recorded)
        boxes = sample(FamilySpec("general", 15), 4) + [isotropic(F(k, 10)) for k in range(11)]
        assert list(optimal_costs(boxes)) == [optimal_cost(box) for box in boxes]
        assert len(starts) > 2  # the path moved, more than once
        # each start as it was made: neither later solves nor later starts
        # wrote into it
        assert [_start_bytes(start) for start in starts] == made

    def test_box_outside_the_hull_keeps_the_last_start(self, monkeypatch):
        mixture = sample(FamilySpec("chsh16_mixture", 3), 1)[0]
        expected = [optimal_cost(mixture, "chsh16"), None, 1]
        starts = []
        start_from = cost.lp._start_from

        def recorded(engine):
            starts.append(start_from(engine))
            return starts[-1]

        monkeypatch.setattr(cost.lp, "_start_from", recorded)
        used = []
        solve_cost = cost._solve_cost

        def solved(box, basis, warm=False, start=None):
            used.append(start)
            return solve_cost(box, basis, warm, start)

        monkeypatch.setattr(cost, "_solve_cost", solved)
        path = [mixture, canonical("noise"), canonical("pr")]
        assert list(optimal_costs(path, "chsh16")) == expected
        # the mixture moves the start; noise, outside the hull, does not
        assert used == [cost._system_for("chsh16").start, starts[0], starts[0]]
        assert len(starts) == 1


    def test_presolved_basis_is_no_start(self):
        # the forcing-row presolve fixes all but d3_1's own column, so its
        # basis need not be dual-feasible for other boxes
        system = cost._system_for("full256")
        box = canonical("d3_1")
        _, engine = cost.lp._solve_prepared(system.prep, box.num, box.den)
        assert engine.free is not None
        with pytest.raises(RuntimeError, match="presolved"):
            cost.lp._start_from(engine)


family_boxes = st.builds(
    lambda family, seed: sample(FamilySpec(family, seed), 1)[0],
    st.sampled_from(FAMILY_KINDS),
    st.integers(0, 2**32),
)


class TestCostProperties:
    @settings(max_examples=40)
    @given(x=family_boxes, y=family_boxes, w=st.fractions(0, 1, max_denominator=1000))
    def test_cost_of_a_mixture_is_at_most_the_mixture_of_costs(self, x, y, w):
        blended = mix([(w, x), (1 - w, y)])
        assert optimal_cost(blended) <= w * optimal_cost(x) + (1 - w) * optimal_cost(y)

    def test_every_deterministic_box_costs_exactly_its_bits(self):
        for det in enumerate_deterministic():
            box = det.as_box()
            assert optimal_cost(box) == det.cost_bits, det.id
            assert communication_cost(box).c == det.cost_bits, det.id


class TestSolverPathPins:
    """The two-phase path decides the printed vertex of every box, not only
    the named boxes the goldens cover: these digests and pivot counts pin its
    decompositions on sampled boxes of three families, and the pivots the
    warm value path takes on the same boxes."""

    CASES = (("general", "full256"), ("no_signaling", "full256"), ("chsh16_mixture", "chsh16"))
    DIGESTS = (
        "981daf2445f6824ed1fd720bc9b136c7840f76e6346fc84230905dd94e641dcf",
        "dea457102476ffd43b89366dae86f8edd9ca96f262275f92a6965873f3165b8c",
        "61748ecdc088b5dd3da0c3065c6e09f9285c772fa4dba6ffc8012a289b548155",
    )
    TWO_PHASE_PIVOTS = 2132
    WARM_PIVOTS = 275

    @staticmethod
    def _count_pivots(monkeypatch) -> list[int]:
        count = [0]
        pivot = cost.lp._Engine._pivot

        def counted(*args, **kwargs):
            count[0] += 1
            return pivot(*args, **kwargs)

        monkeypatch.setattr(cost.lp._Engine, "_pivot", counted)
        return count

    def test_two_phase_decompositions_and_pivots_unchanged(self, monkeypatch):
        pivots = self._count_pivots(monkeypatch)
        for (family, basis), digest in zip(self.CASES, self.DIGESTS):
            objs = [
                decomposition_to_json_obj(communication_cost(box, basis).decomposition)
                for box in sample(FamilySpec(family, 13), 20)
            ]
            text = json.dumps(objs, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, basis)
        assert pivots[0] == self.TWO_PHASE_PIVOTS

    def test_warm_pivots_unchanged(self, monkeypatch):
        for _, basis in self.CASES:
            cost._system_for(basis).start  # the start state's own solve is not counted
        pivots = self._count_pivots(monkeypatch)
        for family, basis in self.CASES:
            for box in sample(FamilySpec(family, 13), 20):
                optimal_cost(box, basis)
        assert pivots[0] == self.WARM_PIVOTS

    # Warm pivots of one reproduce_paper per cost basis, and of sweep --steps
    # 10: each section's boxes are one warm path.  Restarting every solve
    # from the cached start takes 579 and 15, and 108 for the sweep.
    REPRO_WARM_PIVOTS = {"full256": 107, "chsh16": 3}
    SWEEP_WARM_PIVOTS = 16

    def test_repro_and_sweep_warm_pivots_per_basis(self, monkeypatch, capsys):
        from corrbox.cli import main

        systems = {basis: cost._system_for(basis) for basis in cost.BASIS_KINDS}
        for system in systems.values():
            system.start  # the start state's own solve is not counted
        pivots = self._count_pivots(monkeypatch)
        per_basis = dict.fromkeys(systems, 0)
        run_dual = cost.lp._Engine.run_dual

        def counted(engine, reduced):
            before = pivots[0]
            try:
                return run_dual(engine, reduced)
            finally:
                basis = next(b for b, s in systems.items() if s.prep is engine.prep)
                per_basis[basis] += pivots[0] - before

        monkeypatch.setattr(cost.lp._Engine, "run_dual", counted)
        assert reproduce_paper()["failures"] == []
        assert per_basis == self.REPRO_WARM_PIVOTS
        per_basis.update(dict.fromkeys(systems, 0))
        assert main(["sweep", "--steps", "10"]) == 0
        capsys.readouterr()
        assert per_basis == {"full256": self.SWEEP_WARM_PIVOTS, "chsh16": 0}

    def test_deterministic_boxes_take_one_pivot_each(self, monkeypatch):
        # Every other column has an entry on one of a deterministic box's 12
        # zero cells, so the forcing-row presolve leaves one free column.
        pivots = self._count_pivots(monkeypatch)
        for det in enumerate_deterministic():
            assert communication_cost(det.as_box()).decomposition.weights == {det.id: 1}
        assert pivots[0] == 256

    # Both decompositions optimal_decompositions prints for 120 seeded sparse
    # mixtures of 2 to 6 deterministic boxes, all with zero cells.  Fixing
    # columns on zero rows without the presolve's independence test changes
    # this digest, while every golden still passes.
    MIXTURE_DIGEST = "a0f084e8897b8bcdd745d62be27e97b33551337b5333b638ee4904cf4b5d6550"

    def test_sparse_mixture_decompositions_unchanged(self):
        rng = random.Random(31)
        dets = enumerate_deterministic()
        objs = []
        for _ in range(120):
            ids = rng.sample(range(256), rng.randint(2, 6))
            box = mix_ints([rng.randint(1, 9) for _ in ids], [dets[i].as_box() for i in ids])
            assert 0 in box.num
            objs.append(
                [
                    None if d is None else decomposition_to_json_obj(d)
                    for d in optimal_decompositions(box)
                ]
            )
        text = json.dumps(objs, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.MIXTURE_DIGEST
