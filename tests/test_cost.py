from __future__ import annotations

import hashlib
import json
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrbox.cost as cost
import corrbox.lp as lp
from corrbox.boxes import Box, enumerate_deterministic, mix, mix_ints
from corrbox.cost import (
    BadDimension,
    NotInHull,
    communication_cost,
    decomposition_to_json_obj,
    eta_star,
    find_distinct_decompositions,
    optimal_cost,
    optimal_decompositions,
)
from corrbox.generators import (
    FAMILY_KINDS,
    FamilySpec,
    canonical,
    canonical_det_ids,
    canonical_names,
    isotropic,
    quantum_box,
    sample,
)
from corrbox.measures import chsh, signal
from corrbox.verify import analyze, reproduce_paper

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

    @pytest.mark.parametrize("name,moves", [("noise", True), ("d3_1", False)])
    def test_both_states_leave_through_the_dual_check(self, monkeypatch, name, moves):
        # The first vertex and the reoptimized state are each checked, the
        # latter even when it stays on the first support and returns nothing.
        check = lp._Engine.check_dual_feasible
        bases = []

        def counted(engine):
            bases.append(engine.structural_basis())
            return check(engine)

        monkeypatch.setattr(lp._Engine, "check_dual_feasible", counted)
        _, second = optimal_decompositions(canonical(name))
        assert (second is not None) == moves
        assert len(bases) == 2 and (bases[0] != bases[1]) == moves

    @pytest.mark.parametrize("basis", cost.BASIS_KINDS)
    def test_every_column_sums_to_four(self, basis):
        # The premise of optimal_decompositions' completeness argument: every
        # feasible point of the cost program has weights summing to 1.
        assert (cost._system_for(basis).prep.a_int.sum(axis=0) == 4).all()

    def test_second_support_exactly_when_the_oracle_finds_one(self):
        # The independent oracle maximizes the weight outside the first
        # support over the optimal face {A x = p, cost.x = C, x >= 0}: the
        # search must find a second support exactly when that is positive.
        ids = canonical_det_ids()
        dets = enumerate_deterministic()
        rows = [[dets[i].as_box().p[cell] for i in ids] for cell in range(16)]
        rows.append([dets[i].cost_bits for i in ids])
        names = [name for name in canonical_names() if name != "noise"]
        rng = random.Random(1)
        found = []
        for _ in range(30):
            parts = [canonical(name) for name in rng.sample(names, rng.randint(2, 8))]
            box = mix_ints([rng.randint(1, 9) for _ in parts], parts)
            first, second = optimal_decompositions(box, "chsh16")
            outside = [-int(i not in first.weights) for i in ids]
            status, value, _ = solve_reference(rows, [*box.p, first.cost], outside)
            assert status == "optimal"
            assert (second is not None) == (value < 0)
            found.append(second is not None)
        assert found.count(True) == 16 and found.count(False) == 14


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _table_rows() -> list[tuple[int, ...]]:
    return [tuple(row) for row in cost._dual_vertices().tolist()]


def _active_row(box: Box) -> tuple[int, ...]:
    """A table row 2y of largest value on box, in Python integers."""
    return max(_table_rows(), key=lambda row: _dot(row, box.num))


def _hull_program_cost(box: Box) -> Fraction | None:
    try:
        return cost._solve_cost(box, "chsh16")[0].cost
    except NotInHull:
        return None


class TestValuePath:
    """optimal_cost (the dual-vertex table) against the two-phase
    communication_cost, and its active row as a dual certificate in
    integers."""

    @settings(max_examples=60)
    @given(
        family=st.sampled_from(
            ("general", "no_signaling", "chsh16_mixture", "oneway_slice")
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_value_and_dual_certificate(self, family, seed):
        box = sample(FamilySpec(family, seed), 1)[0]
        for basis in ("full256", "chsh16"):
            try:
                expected = communication_cost(box, basis).c
            except NotInHull:
                with pytest.raises(NotInHull):
                    optimal_cost(box, basis)
                continue
            assert optimal_cost(box, basis) == expected, basis
        # the active row 2y is dual-feasible, 2y.d_j <= 2 cost_j on every
        # strategy, and 2y.p = 2C
        row = _active_row(box)
        for det in enumerate_deterministic():
            assert _dot(row, det.as_box().num) <= 2 * det.cost_bits, det.id
        assert Fraction(_dot(row, box.num), 2 * box.den) == optimal_cost(box)

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
        # Bland's rule from the first pivot takes another path through the
        # two-phase program to the same C as the table.
        boxes = [box for kind in FAMILY_KINDS for box in sample(FamilySpec(kind, 12), 4)]
        monkeypatch.setattr(cost.lp, "_BLAND_AFTER", 0)
        assert [communication_cost(b).c for b in boxes] == [optimal_cost(b) for b in boxes]

    def test_object_arithmetic_gives_the_same_value(self):
        # Denominators of 2**40 and more take the coarse int64 pass and exact
        # Python integers on the rows near its maximum: the same maximum as
        # every row in Python integers.
        boxes = sample(FamilySpec("general", 13), 10) + [
            quantum_box((0.1 * k, 0.7, 0.3 * k, -0.4), 10**18 + k) for k in range(5)
        ]
        assert min(box.den for box in boxes) >= 2**40
        for box in boxes:
            top = max(_dot(row, box.num) for row in _table_rows())
            assert cost._cost_numerator(box) == top
            assert optimal_cost(box) == F(top, 2 * box.den)
        # the margin covers the coarse pass's error, less than each row's
        # sum of |2y| on either side
        assert 2 * int(abs(cost._dual_vertices()).sum(axis=1).max()) <= cost._COARSE_MARGIN

    def test_vertex_table_is_shared_and_read_only(self):
        table = cost._dual_vertices()
        assert table is cost._dual_vertices()
        assert table.shape == (408, 16) and table.dtype == np.int64
        assert not table.flags.writeable
        before = table.tobytes()
        for box in sample(FamilySpec("general", 14), 3):
            optimal_cost(box)
        assert table.tobytes() == before


def _single_cost(box, basis):
    try:
        return optimal_cost(box, basis)
    except NotInHull:
        return None


class TestWarmPath:
    """A path of boxes in and out of the chsh16 hull: analyze's C and
    optimal_cost on each basis equal the two-phase program box by box."""

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
        got = [_single_cost(box, basis) for box in path]
        if basis == "full256":
            assert [analyze(box).c for box in path] == got
            expected = [cost._solve_cost(box, basis)[0].cost for box in path]
        else:
            expected = [_hull_program_cost(box) for box in path]
        assert got == expected
        outside_at = [0, half + 1, len(path) - 1]
        if basis == "chsh16":
            assert all(expected[i] is None for i in outside_at)
        else:
            assert None not in expected


# The strategies as rows d_j of cell indicators, and their costs in bits.
_STRATEGIES = [det.as_box().num for det in enumerate_deterministic()]
_BITS = [det.cost_bits for det in enumerate_deterministic()]
# The coordinates of a normalized row: all cells but 4, 8 and 12.
_FREE = [c for c in range(16) if c not in (4, 8, 12)]


def _tight(row) -> list[int]:
    return [j for j, d in enumerate(_STRATEGIES) if _dot(row, d) == 2 * _BITS[j]]


def _echelon(vectors) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of vectors over the rationals, with its
    pivot columns."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        pivot = [x / rows[p][c] for x in rows[p]]
        rows[p] = rows[r]
        rows[r] = pivot
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _rank(vectors) -> int:
    return len(_echelon(vectors)[1])


def _primitive(v) -> tuple[int, ...]:
    scale = 1
    for x in v:
        scale = math.lcm(scale, Fraction(x).denominator)
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def _kernel_vector(vectors) -> tuple[int, ...]:
    """A primitive integer vector orthogonal to d - 1 independent vectors of
    length d."""
    rows, pivots = _echelon(vectors)
    free = next(c for c in range(len(rows[0])) if c not in pivots)
    v = [Fraction(0)] * len(rows[0])
    v[free] = Fraction(1)
    for row, c in zip(rows, pivots):
        v[c] = -row[free]
    return _primitive(v)


def _extreme_rays(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """The extreme rays of the pointed cone {z : a.z <= 0 for a in rows}, by
    exact double description (Fukuda and Prodon, 1996): the simplicial cone
    of d independent rows, then each other row cut in, keeping a ray's set
    of tight rows and combining a pair across the cut only when no third
    ray is tight on every row both are (the combinatorial adjacency test)."""
    d = len(rows[0])
    basis: list[int] = []
    for i, a in enumerate(rows):
        if _rank([rows[k] for k in basis] + [a]) > len(basis):
            basis.append(i)
    assert len(basis) == d
    rays = []
    for k in basis:
        tight = [i for i in basis if i != k]
        r = _kernel_vector([rows[i] for i in tight])
        if _dot(rows[k], r) > 0:
            r = tuple(-x for x in r)
        rays.append((r, frozenset(tight)))
    for i, a in enumerate(rows):
        if i in basis:
            continue
        values = [_dot(a, r) for r, _ in rays]
        kept = [ray for ray, v in zip(rays, values) if v < 0]
        kept += [(r, z | {i}) for (r, z), v in zip(rays, values) if v == 0]
        for (rp, zp), vp in zip(rays, values):
            if vp <= 0:
                continue
            for (rm, zm), vm in zip(rays, values):
                common = zp & zm
                if vm >= 0 or len(common) < d - 2:
                    continue
                if any(common <= z for r, z in rays if r != rp and r != rm):
                    continue
                kept.append((_primitive([vp * x - vm * y for x, y in zip(rm, rp)]), common | {i}))
        rays = kept
    return [r for r, _ in rays]


@lru_cache(maxsize=None)
def _neighbours(rep: tuple[int, ...]) -> tuple[tuple[tuple[Fraction, ...], ...], int, int]:
    """The vertices adjacent to rep, a row 2y with y4 = y8 = y12 = 0, with the
    number of extreme rays of its tangent cone and how many are unbounded.
    The cone {z : z.d_j <= 0 on rep's tight strategies} is taken in the
    coordinates where z4 = z8 = z12 = 0; each bounded ray is followed to the
    first strategy it makes tight."""
    tight = _tight(rep)
    rays = _extreme_rays([[_STRATEGIES[j][c] for c in _FREE] for j in tight])
    out = []
    for ray in rays:
        z = [0] * 16
        for c, x in zip(_FREE, ray):
            z[c] = x
        steps = [
            Fraction(2 * _BITS[j] - _dot(rep, d), _dot(z, d))
            for j, d in enumerate(_STRATEGIES)
            if _dot(z, d) > 0
        ]
        if steps:
            t = min(steps)
            out.append(tuple(v + t * x for v, x in zip(rep, z)))
    return tuple(out), len(rays), len(rays) - len(out)


def _orbit_slices() -> list[slice]:
    out, start = [], 0
    for size, _ in cost._DUAL_ORBITS:
        out.append(slice(start, start + size))
        start += size
    return out


class TestDualVertexTable:
    """The 408 rows are the complete vertex list of the full256 dual
    polytope, modulo the lineality: each is dual-feasible with a tight set of
    rank 13 (validity), and every vertex adjacent to an orbit's
    representative is a row (completeness, by adjacency decomposition:
    Christof and Reinelt, IJCGA 11, 2001).  The vertex graph of a pointed
    polyhedron is connected and the relabelings map the table onto itself,
    so a list closed under adjacency from each orbit holds every vertex."""

    def test_rows_are_valid_vertices(self):
        table = cost._dual_vertices()
        assert [size for size, _ in cost._DUAL_ORBITS] == [8, 16, 32, 32, 64, 64, 64, 128]
        assert table.shape == (408, 16) and len(set(_table_rows())) == 408
        assert not table[:, [4, 8, 12]].any()
        # 2y.d_j <= 2 cost_j for every row and strategy, in integers
        assert (table @ np.array(_STRATEGIES).T <= 2 * np.array(_BITS)).all()
        for _, rep in cost._DUAL_ORBITS:
            assert rep in set(_table_rows())
            assert _rank([_STRATEGIES[j] for j in _tight(rep)]) == 13, rep

    def test_row_order_is_pinned(self):
        # Orbit by orbit, each in relabeling_group() order with the first of
        # its duplicates kept.  A search that takes the first maximal row
        # reads this order, so it is pinned along with the set.
        digest = hashlib.sha256(cost._dual_vertices().astype("<i8").tobytes()).hexdigest()
        assert digest == "4521b0f59a37a00f1d18a082377a6e05b3e2c701a7c0b6d0a7474fc853860502"

    def test_strategies_are_the_deterministic_boxes(self):
        nums, bits = cost._strategies()
        assert nums.dtype == bits.dtype == np.int64
        assert list(map(tuple, nums.tolist())) == _STRATEGIES
        assert bits.tolist() == _BITS

    def test_every_neighbour_is_a_row(self):
        rows = set(_table_rows())
        rays = unbounded = 0
        for _, rep in cost._DUAL_ORBITS:
            found, n_rays, n_unbounded = _neighbours(rep)
            assert set(found) <= rows, rep
            rays += n_rays
            unbounded += n_unbounded
        assert (rays, unbounded) == (212, 75)

    @pytest.mark.parametrize("dropped", range(8))
    def test_dropping_any_orbit_fails_the_check(self, dropped):
        table = _table_rows()
        kept = set()
        for k, part in enumerate(_orbit_slices()):
            if k != dropped:
                kept.update(table[part])
        found = {
            n
            for k, (_, rep) in enumerate(cost._DUAL_ORBITS)
            if k != dropped
            for n in _neighbours(rep)[0]
        }
        assert not found <= kept


def _f_row() -> list[int]:
    """(F - 2) / 2 as a row 2y: F's signs at each setting s = 2a + b on the
    four outcome cells, then -2 on the cells of setting 0 (their sum is 1)."""
    signs = (1, 1, -1, 1)
    row = [signs[c // 4] * (1, -1, -1, 1)[c % 4] for c in range(16)]
    return [v - 2 if c < 4 else v for c, v in enumerate(row)]


class TestHullRule:
    """optimal_cost(box, "chsh16") is (F - 2) / 2 when that equals the
    full256 C, else NotInHull: the F row is a table row, tight on exactly the
    16 canonical strategies, so by complementary slackness the box is in
    their hull exactly when the row is optimal."""

    def test_f_row_is_tight_on_exactly_the_canonical_strategies(self):
        row = _f_row()
        assert all(_dot(row, d) <= 2 * b for d, b in zip(_STRATEGIES, _BITS))
        assert _tight(row) == sorted(canonical_det_ids())
        normalized = cost._normalized(np.array([row], dtype=np.int64))[0]
        assert tuple(normalized.tolist()) in set(_table_rows())

    def test_hull_rule_matches_the_chsh16_program(self):
        rng = random.Random(1616)
        dets = enumerate_deterministic()
        ids = canonical_det_ids()
        others = [i for i in range(256) if i not in ids]
        boxes = [isotropic(F(k, 100)) for k in range(101)]
        for kind in FAMILY_KINDS:
            boxes += sample(FamilySpec(kind, 16), 25)
        for _ in range(60):
            # a canonical mixture and one other strategy at small weight
            parts = rng.sample(ids, rng.randint(1, 6)) + [rng.choice(others)]
            weights = [rng.randint(50, 200) for _ in parts[:-1]] + [rng.randint(0, 3)]
            boxes.append(mix_ints(weights, [dets[i].as_box() for i in parts]))
        inside = 0
        for box in boxes:
            expected = _hull_program_cost(box)
            assert _single_cost(box, "chsh16") == expected, box.num
            inside += expected is not None
        assert 0 < inside < len(boxes)


class TestHullProof:
    """_prove_cost proves a hull box's C, the form (F - 2) / 2, with one
    feasibility solve of the chsh16 program: phase 1, the point
    re-substituted in integers, its value checked against C and its
    decomposition re-summed.  Nothing certifies the chsh16 optimum itself;
    the F row, checked with the table, is the dual side."""

    @staticmethod
    def hull_boxes() -> list[Box]:
        boxes = [canonical("pr"), isotropic(F(3, 4))]
        boxes += sample(FamilySpec("chsh16_mixture", 23), 20)
        boxes += sample(FamilySpec("oneway_slice", 23), 20)
        return boxes

    @staticmethod
    def record(monkeypatch, name: str, calls: list) -> None:
        real = getattr(lp._Engine, name)

        def recorded(self, *args, **kwargs):
            calls.append(args[0] if name == "_loop" else name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(lp._Engine, name, recorded)

    def test_one_phase1_loop_and_no_optimality_checks(self, monkeypatch):
        boxes = self.hull_boxes()
        costs = [optimal_cost(box) for box in boxes]
        assert all(cost._hull_cost(box, c) == c for box, c in zip(boxes, costs))
        loops, skipped, resubstituted = [], [], []
        self.record(monkeypatch, "_loop", loops)
        self.record(monkeypatch, "_drive_out_artificials", skipped)
        self.record(monkeypatch, "check_dual_feasible", skipped)
        self.record(monkeypatch, "check_basic_state", resubstituted)
        for box, c in zip(boxes, costs):
            loops.clear()
            cost._prove_cost(box, c)
            assert loops == [None], box.num
        assert skipped == []
        assert len(resubstituted) == len(boxes)

    def test_value_disagreement_is_an_internal_error(self, monkeypatch, capsys):
        # Every chsh16 column one bit dearer: every feasible point costs
        # C + 1, which the value check refutes.
        from corrbox.cli import main

        real = cost._system_for
        chsh16 = real("chsh16")
        nums, bits = cost._strategies()
        rows = list(chsh16.ids)
        prep = lp._prepare_int01(nums[rows].T.copy(), bits[rows] + 1)
        dearer = cost._CostSystem(prep=prep, ids=chsh16.ids)
        monkeypatch.setattr(cost, "_system_for", lambda b: dearer if b == "chsh16" else real(b))
        message = "program value 2 disagrees with the dual-vertex table's 1"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            cost._prove_cost(canonical("pr"), F(1))
        assert main(["analyze", "pr", "--text"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: internal: {message}\n"

    def test_decomposition_is_resummed(self, monkeypatch):
        # A weight of the feasible point shifted by 1/7: the decomposition
        # no longer costs the value read from the basic state.
        real = lp._feasible

        def shifted(*args):
            solution = real(*args)
            point = list(solution.point)
            point[next(j for j in solution.basis if point[j] != 0)] += F(1, 7)
            return lp.LpSolution(
                solution.status, solution.value, tuple(point), solution.basis, solution.certificate
            )

        monkeypatch.setattr(lp, "_feasible", shifted)
        message = "decomposition cost disagrees with program value"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            cost._prove_cost(canonical("pr"), F(1))

    def test_box_outside_the_hull_fails_through_the_farkas_exit(self, monkeypatch):
        # A hull rule that always attains the maximum reads noise, and every
        # general box, as inside: the chsh16 program is infeasible, and its
        # Farkas vector is checked before the proof fails.
        from corrbox.verify import fuzz

        monkeypatch.setattr(cost, "_hull_numerator", cost._cost_numerator)
        farkas = []
        self.record(monkeypatch, "farkas_certificate", farkas)
        message = "infeasible chsh16 program disagrees with the dual-vertex table's 0"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            cost._prove_cost(canonical("noise"), F(0))
        assert farkas == ["farkas_certificate"]
        pattern = "^infeasible chsh16 program disagrees .* on general sample 0$"
        with pytest.raises(RuntimeError, match=pattern):
            fuzz(FamilySpec("general", 3), 5)
        assert len(farkas) == 2


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
    decompositions on sampled boxes of three families."""

    CASES = (("general", "full256"), ("no_signaling", "full256"), ("chsh16_mixture", "chsh16"))
    DIGESTS = (
        "981daf2445f6824ed1fd720bc9b136c7840f76e6346fc84230905dd94e641dcf",
        "dea457102476ffd43b89366dae86f8edd9ca96f262275f92a6965873f3165b8c",
        "61748ecdc088b5dd3da0c3065c6e09f9285c772fa4dba6ffc8012a289b548155",
    )
    TWO_PHASE_PIVOTS = 2132

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

    def test_repro_and_sweep_solve_no_program_for_values(self, monkeypatch, capsys):
        # Every value comes from the table; repro's one solve is the noise
        # box's pair of decompositions.
        from corrbox.cli import main

        solved = []
        solve = cost._solve_cost
        monkeypatch.setattr(cost, "_solve_cost", lambda *a: solved.append(a[1]) or solve(*a))
        assert reproduce_paper()["failures"] == []
        assert solved == ["full256"]
        assert main(["sweep", "--steps", "10"]) == 0
        capsys.readouterr()
        assert solved == ["full256"]

    def test_repro_reads_the_table_once_per_box(self, monkeypatch):
        # 51 reported boxes and the noise box's solve: a box's chsh16 answer
        # comes from the C its analysis read.
        reads = []
        numerator = cost._cost_numerator
        monkeypatch.setattr(cost, "_cost_numerator", lambda box: reads.append(1) or numerator(box))
        assert reproduce_paper()["failures"] == []
        assert len(reads) == 52

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
