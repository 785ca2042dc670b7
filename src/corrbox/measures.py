"""Exact scalar measures on correlation boxes.

Every measure is an integer kernel on the box's numerators num over its
denominator den, unrolled over the cells: each value it returns is the
numerator of the measure over den, computed without tolerances and without
a Fraction.  A Fraction is built only for a value that is reported:

* chsh: the four one-minus-sign correlator sums (in absolute value) and their
  maximum; the maximum also covers the sign-reversed functionals.
* signal: how much each party's marginal moves with the other party's input.
* unpredictability: the guessing-residual of the outcomes, in two variants.
* uncertainty: per-party, per-setting guessing residuals and their maxima.

Both unpredictability variants and the uncertainty report derive from the
same eight residuals (_residuals).  _numerators derives the five numerators
the tracked inequalities read (s, i_formula, i_per_party, u_a, u_b) from the
signal pair and the residuals, and _facet_bound the facet bound on C from
the CHSH maximum as one integer pair.  _signed_pattern is the signed
correlator sum F whose form (F - 2) / 2 is C on the 16-box hull.  verify.fuzz
scores a box from these integers alone.

Analysis is the per-box record: a box, its exact cost C, and the quantities
above (with eta = C - s and the facet bound).  It keeps each kernel's
integers from their first use, and numerators is _numerators of them; its
Fraction fields are built when read.  cost.CostReport is an Analysis with a
decomposition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boxes import Box

UNPREDICTABILITY_VARIANTS = ("formula", "per_party")

def _facet_bound(lambda_num: int, den: int) -> tuple[int, int]:
    """max(0, (lambda_max - 2) / 2) for lambda_max = lambda_num / den, as a
    numerator over the positive denominator 2 * den (not reduced)."""
    return max(0, lambda_num - 2 * den), 2 * den


@dataclass(frozen=True)
class ChshReport:
    """values[k]: |sum of the four correlators with a minus on term k|,
    terms ordered E(0,0), E(0,1), E(1,0), E(1,1).  lambda_max = max(values)."""

    values: tuple[Fraction, Fraction, Fraction, Fraction]
    lambda_max: Fraction

    @property
    def facet_bound(self) -> Fraction:
        """The facet lower bound on C: max(0, (lambda_max - 2) / 2)."""
        return Fraction(*_facet_bound(*self.lambda_max.as_integer_ratio()))


@dataclass(frozen=True)
class SignalReport:
    s_a_to_b: Fraction
    s_b_to_a: Fraction
    s: Fraction


@dataclass(frozen=True)
class UncertaintyReport:
    """delta[(party, setting)]: best-case guessing residual of that party's
    outcome at that setting, maximized over the other party's input.  u_a and
    u_b take the worse (larger) of the two settings for each party."""

    delta: dict[tuple[str, int], Fraction]
    u_a: Fraction
    u_b: Fraction


def _chsh_values(box: Box) -> tuple[int, int, int, int]:
    """The numerators of ChshReport.values over box.den."""
    n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11, n12, n13, n14, n15 = box.num
    e0 = n0 - n1 - n2 + n3
    e1 = n4 - n5 - n6 + n7
    e2 = n8 - n9 - n10 + n11
    e3 = n12 - n13 - n14 + n15
    t = e0 + e1 + e2 + e3
    return abs(t - 2 * e0), abs(t - 2 * e1), abs(t - 2 * e2), abs(t - 2 * e3)


_F_ROW = (1, -1, -1, 1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1)


def _signed_pattern(box: Box) -> int:
    """F = E(0,0) + E(0,1) - E(1,0) + E(1,1) as a numerator over box.den:
    2 + 2 * (cost bits) on each of the 16 canonical boxes, so (F - 2) / 2
    is C on their hull (cost.optimal_cost)."""
    return sum(map(operator.mul, _F_ROW, box.num))


def _chsh_report(values: tuple[int, ...], den: int) -> ChshReport:
    report = tuple(Fraction(v, den) for v in values)
    return ChshReport(values=report, lambda_max=max(report))


def chsh(box: Box) -> ChshReport:
    return _chsh_report(_chsh_values(box), box.den)


def _signal_values(box: Box) -> tuple[int, int]:
    """The numerators of (s_a_to_b, s_b_to_a) over box.den: the largest move
    of P(B = 0 | a, b) with a, and of P(A = 0 | a, b) with b."""
    n0, n1, n2, _, n4, n5, n6, _, n8, n9, n10, _, n12, n13, n14, _ = box.num
    a_to_b = max(abs(n0 + n2 - n8 - n10), abs(n4 + n6 - n12 - n14))
    b_to_a = max(abs(n0 + n1 - n4 - n5), abs(n8 + n9 - n12 - n13))
    return a_to_b, b_to_a


def _signal_report(values: tuple[int, int], den: int) -> SignalReport:
    a_to_b, b_to_a = Fraction(values[0], den), Fraction(values[1], den)
    return SignalReport(s_a_to_b=a_to_b, s_b_to_a=b_to_a, s=max(a_to_b, b_to_a))


def signal(box: Box) -> SignalReport:
    return _signal_report(_signal_values(box), box.den)


Residuals = tuple[tuple[int, int, int, int], tuple[int, int, int, int]]


def _residuals(box: Box) -> Residuals:
    """The numerators over box.den of the residuals min(m, 1 - m) of
    m = P(A = 0 | a, b) and of m = P(B = 0 | a, b) at the settings (0,0),
    (0,1), (1,0), (1,1): min(m, 1 - m) is the error of the best constant
    guess for a bit.  The shared input of both unpredictability variants and
    of the uncertainty report."""
    n0, n1, n2, _, n4, n5, n6, _, n8, n9, n10, _, n12, n13, n14, _ = box.num
    den = box.den
    a0, a1, a2, a3 = n0 + n1, n4 + n5, n8 + n9, n12 + n13
    b0, b1, b2, b3 = n0 + n2, n4 + n6, n8 + n10, n12 + n14
    return (
        (min(a0, den - a0), min(a1, den - a1), min(a2, den - a2), min(a3, den - a3)),
        (min(b0, den - b0), min(b1, den - b1), min(b2, den - b2), min(b3, den - b3)),
    )


def _numerators(
    signal: tuple[int, int], residuals: Residuals
) -> tuple[int, int, int, int, int]:
    """s, i_formula, i_per_party, u_a and u_b as numerators over den, from
    the signal pair and the residuals.  i_formula is the largest over
    settings of the smaller party-residual there; u_a and u_b are each
    party's worst residual, and i_per_party the worse of the two."""
    res_a, res_b = residuals
    u_a, u_b = max(res_a), max(res_b)
    return max(signal), max(map(min, res_a, res_b)), max(u_a, u_b), u_a, u_b


def _uncertainty_report(residuals: Residuals, den: int) -> UncertaintyReport:
    # delta at (A, a) maximizes over b, at (B, b) over a.
    (a0, a1, a2, a3), (b0, b1, b2, b3) = residuals
    pairs = ((a0, a1), (a2, a3), (b0, b2), (b1, b3))
    delta = [Fraction(max(x, y), den) for x, y in pairs]
    return UncertaintyReport(
        delta=dict(zip((("A", 0), ("A", 1), ("B", 0), ("B", 1)), delta)),
        u_a=max(delta[0], delta[1]),
        u_b=max(delta[2], delta[3]),
    )


def unpredictability(box: Box, variant: str = "formula") -> Fraction:
    """Outcome unpredictability of the box.

    formula:   max over settings of the smaller party-residual there.
    per_party: max over parties of that party's worst-setting residual; this
               always dominates the formula variant.
    """
    if variant not in UNPREDICTABILITY_VARIANTS:
        raise ValueError(f"unknown unpredictability variant: {variant!r}")
    numerators = _numerators(_signal_values(box), _residuals(box))
    return Fraction(numerators[1 + UNPREDICTABILITY_VARIANTS.index(variant)], box.den)


def uncertainty(box: Box) -> UncertaintyReport:
    return _uncertainty_report(_residuals(box), box.den)


def lhv_admissible(box: Box) -> bool:
    """True iff the box is explainable by shared randomness alone: no
    signaling and no correlator sum beyond 2."""
    return max(_signal_values(box)) == 0 and max(_chsh_values(box)) <= 2 * box.den


@dataclass(frozen=True)
class Analysis:
    """A box and its exact cost C, with the per-box quantities of the tracked
    inequalities.  Each kernel runs on its first use and its integers are
    kept; each Fraction field is built on its first read and kept."""

    box: Box
    c: Fraction

    @cached_property
    def _chsh(self) -> tuple[int, int, int, int]:
        return _chsh_values(self.box)

    @cached_property
    def _signal(self) -> tuple[int, int]:
        return _signal_values(self.box)

    @cached_property
    def _residuals(self) -> Residuals:
        return _residuals(self.box)

    @cached_property
    def numerators(self) -> tuple[int, int, int, int, int]:
        """s, i_formula, i_per_party, u_a and u_b as integer numerators over
        box.den."""
        return _numerators(self._signal, self._residuals)

    @cached_property
    def chsh(self) -> ChshReport:
        return _chsh_report(self._chsh, self.box.den)

    @cached_property
    def signal(self) -> SignalReport:
        return _signal_report(self._signal, self.box.den)

    @cached_property
    def s(self) -> Fraction:
        return self.signal.s

    @cached_property
    def eta(self) -> Fraction:
        return self.c - self.s

    @property
    def lower_bound(self) -> Fraction:
        """The facet bound from the cached CHSH values, a lower bound on c."""
        return Fraction(*_facet_bound(max(self._chsh), self.box.den))

    @cached_property
    def i_formula(self) -> Fraction:
        return Fraction(self.numerators[1], self.box.den)

    @cached_property
    def i_per_party(self) -> Fraction:
        return Fraction(self.numerators[2], self.box.den)

    @cached_property
    def uncertainty(self) -> UncertaintyReport:
        return _uncertainty_report(self._residuals, self.box.den)
