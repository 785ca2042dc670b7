"""The record contract: corrbox's result and table types are frozen records
whose equality, hash and repr go by their fields, in order."""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import numpy as np
import pytest

import corrbox.cost as cost
import corrbox.lp as lp
from corrbox._record import Record
from corrbox.boxes import Box, DeterministicBox, Direction, MixingTable, Relabeling
from corrbox.cost import CostReport, Decomposition
from corrbox.generators import BadParameter, FamilySpec
from corrbox.lp import DimensionMismatch, LinearProgram, LpSolution
from corrbox.measures import Analysis, chsh, signal, uncertainty
from corrbox.verify import FindingsReport, PropertyResult

PR = Box.from_numerators((1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1), 2)
PREP = lp._prepare_int01(np.array([[1, 0], [0, 1]], dtype=np.int64), [1, 2])
PREPARED_FIELDS = (
    "m", "n", "a_int", "col_cost", "cost_vec", "phase1_cost", "cost_den", "row_scale",
    "dtype", "col_rows", "nonneg_rows",
)


def _decomposition() -> Decomposition:
    return Decomposition({2: F(1, 2), 253: F(1, 2)}, "full256", F(1))


def _violation() -> PropertyResult:
    return PropertyResult("S_LE_C", False, F(-1, 2), "asserted", None, PR)


# Each case: a constructor called afresh for every instance, the field names
# in order, and how instances compare: "fields" (equal and hash-equal by
# field), "unhashable" (equal by field; a field holds a dict, list or array)
# or "identity" (equal only to itself).
RECORDS = [
    pytest.param(
        lambda: Box.from_numerators(PR.num, PR.den), ("num", "den"), "fields", id="Box"
    ),
    pytest.param(lambda: MixingTable([PR]), ("matrix", "den"), "identity", id="MixingTable"),
    pytest.param(
        lambda: DeterministicBox(
            id=83, out_a=(0, 0, 1, 1), out_b=(0, 1, 0, 1), cost_bits=2, direction=Direction.BOTH
        ),
        ("id", "out_a", "out_b", "cost_bits", "direction"),
        "fields",
        id="DeterministicBox",
    ),
    pytest.param(
        lambda: Relabeling(True, 0, 1, (0, 1), (1, 0)),
        ("swap", "flip_a", "flip_b", "flip_out_a", "flip_out_b"),
        "fields",
        id="Relabeling",
    ),
    pytest.param(lambda: chsh(PR), ("values", "lambda_max"), "fields", id="ChshReport"),
    pytest.param(lambda: signal(PR), ("s_a_to_b", "s_b_to_a", "s"), "fields", id="SignalReport"),
    pytest.param(
        lambda: uncertainty(PR), ("delta", "u_a", "u_b"), "unhashable", id="UncertaintyReport"
    ),
    pytest.param(lambda: Analysis(PR, F(1)), ("box", "c"), "fields", id="Analysis"),
    pytest.param(
        lambda: LinearProgram(((F(1), F(1)),), (F(1),), (F(1), F(2))),
        ("constraint_matrix", "rhs", "objective"),
        "fields",
        id="LinearProgram",
    ),
    pytest.param(
        lambda: LpSolution("optimal", F(1), (F(1), F(0)), (0,)),
        ("status", "value", "point", "basis", "certificate"),
        "fields",
        id="LpSolution",
    ),
    pytest.param(
        lambda: lp._Prepared(**{name: getattr(PREP, name) for name in PREPARED_FIELDS}),
        PREPARED_FIELDS,
        "identity",
        id="_Prepared",
    ),
    pytest.param(
        _decomposition, ("weights", "basis_kind", "cost"), "unhashable", id="Decomposition"
    ),
    pytest.param(
        lambda: CostReport(PR, F(1), _decomposition()),
        ("box", "c", "decomposition"),
        "unhashable",
        id="CostReport",
    ),
    pytest.param(
        lambda: cost._CostSystem(prep=PREP, ids=(0, 1)), ("prep", "ids"), "fields",
        id="_CostSystem",
    ),
    pytest.param(lambda: FamilySpec("general", 7), ("kind", "seed"), "fields", id="FamilySpec"),
    pytest.param(
        _violation,
        ("property_id", "holds", "slack", "strictness", "variant", "witness"),
        "fields",
        id="PropertyResult",
    ),
    pytest.param(
        lambda: FindingsReport(
            "general", 7, 1, 1, True, False, {"S_LE_C": (1, 0, 1)}, (_violation(),)
        ),
        (
            "family", "seed", "samples", "checked", "aborted", "corrupted", "per_property",
            "witnesses",
        ),
        "unhashable",
        id="FindingsReport",
    ),
]


@pytest.mark.parametrize("make, fields, compare", RECORDS)
class TestRecordContract:
    def test_constructor_stores_exactly_the_fields(self, make, fields, compare):
        assert vars(make()).keys() == set(fields)

    def test_fields_are_frozen(self, make, fields, compare):
        record = make()
        before = dict(vars(record))
        for name in (*fields, "unlisted"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert vars(record) == before

    def test_equality_and_hash(self, make, fields, compare):
        first, second = make(), make()
        assert first is not second
        if compare == "identity":
            assert first == first and first != second
            assert hash(first) == object.__hash__(first)
            return
        assert first == second and not first != second
        if compare == "fields":
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(first)

    def test_repr_names_the_class_and_fields(self, make, fields, compare):
        record = make()
        listed = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__qualname__}({listed})"


def _subclasses(cls: type) -> list[type]:
    return [found for sub in cls.__subclasses__() for found in (sub, *_subclasses(sub))]


def test_every_record_class_is_listed():
    assert sorted(cls.__name__ for cls in _subclasses(Record)) == sorted(p.id for p in RECORDS)


def test_a_record_equals_only_its_own_class():
    analysis = Analysis(PR, F(1))
    report = CostReport(PR, F(1), _decomposition())
    assert analysis != report and report != analysis
    assert analysis != (PR, F(1))


def test_systems_prepared_apart_are_unequal():
    # Equal arrays would make == ask numpy for the truth of an array.
    again = lp._prepare_int01(np.array([[1, 0], [0, 1]], dtype=np.int64), [1, 2])
    assert PREP != again and PREP == PREP
    assert cost._CostSystem(PREP, (0, 1)) != cost._CostSystem(again, (0, 1))


def test_defaults():
    assert LpSolution("infeasible", None, (), None).certificate is None
    result = PropertyResult("S_LE_C", True, F(0), "asserted")
    assert result.variant is None and result.witness is None


@pytest.mark.parametrize(
    "kind, seed, message",
    [("general", -1, "seed must be nonnegative, got -1"), ("nope", 0, "unknown family 'nope'")],
)
def test_family_spec_checks(kind, seed, message):
    with pytest.raises(BadParameter, match=message):
        FamilySpec(kind, seed)


@pytest.mark.parametrize(
    "matrix, rhs, objective, message",
    [
        ((), (), (), "no constraint rows"),
        (((),), (F(1),), (), "no columns"),
        (((F(1), F(1)), (F(1),)), (F(1), F(1)), (F(1), F(1)), "row 1 has 1 entries, expected 2"),
        (((F(1), F(1)),), (F(1), F(1)), (F(1), F(1)), "rhs has 2 entries, expected 1"),
        (((F(1), F(1)),), (F(1),), (F(1),), "objective has 1 entries, expected 2"),
    ],
)
def test_linear_program_checks(matrix, rhs, objective, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        LinearProgram(matrix, rhs, objective)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((PREP,), {}),
        ((PREP, (0, 1), None), {}),
        ((PREP, (0, 1)), {"prep": PREP}),
        ((PREP,), {"id": (0, 1)}),
    ],
    ids=["missing", "extra", "twice", "unknown"],
)
def test_the_shared_constructor_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match="^_CostSystem"):
        cost._CostSystem(*args, **kwargs)
    assert cost._CostSystem(PREP, ids=(0, 1)) == cost._CostSystem(PREP, (0, 1))


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("S_LE_C", True, F(0)), {}),
        (("S_LE_C", True, F(0), "asserted"), {"holds": True}),
        (("S_LE_C", True, F(0), "asserted"), {"witnes": PR}),
        (("S_LE_C", True, F(0), "asserted", None, PR, None), {}),
    ],
    ids=["missing", "twice", "unknown", "extra"],
)
def test_the_shared_constructor_fills_defaults_once(args, kwargs):
    # The shared constructor's wording, with the defaults shown.
    fields = "property_id, holds, slack, strictness, variant=None, witness=None"
    message = "^" + re.escape(f"PropertyResult() takes the fields {fields}") + "$"
    with pytest.raises(TypeError, match=message):
        PropertyResult(*args, **kwargs)
    bare = PropertyResult("S_LE_C", True, F(0), "asserted")
    assert bare == PropertyResult("S_LE_C", True, F(0), "asserted", None, None)
    assert bare == PropertyResult(
        property_id="S_LE_C", holds=True, slack=F(0), strictness="asserted", witness=None
    )
    assert vars(bare) == vars(PropertyResult("S_LE_C", True, F(0), "asserted", variant=None))
