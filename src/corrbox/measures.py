"""Exact scalar measures on correlation boxes.

All quantities are Fractions computed without tolerances:

* chsh: the four one-minus-sign correlator sums (in absolute value) and their
  maximum; the maximum also covers the sign-reversed functionals.
* signal: how much each party's marginal moves with the other party's input.
* unpredictability: the guessing-residual of the outcomes, in two variants.
* uncertainty: per-party, per-setting guessing residuals and their maxima.

Both unpredictability variants and the uncertainty report derive from the
same eight residuals (_residuals).

Analysis is the per-box record: a box, its exact cost C, and the quantities
above (with eta = C - s and the facet bound), each read from the box on first
use and kept.  cost.CostReport is an Analysis with a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boxes import Box

_HALF = Fraction(1, 2)

UNPREDICTABILITY_VARIANTS = ("formula", "per_party")


@dataclass(frozen=True)
class ChshReport:
    """values[k]: |sum of the four correlators with a minus on term k|,
    terms ordered E(0,0), E(0,1), E(1,0), E(1,1).  lambda_max = max(values)."""

    values: tuple[Fraction, Fraction, Fraction, Fraction]
    lambda_max: Fraction

    @property
    def facet_bound(self) -> Fraction:
        """The facet lower bound on C: max(0, (lambda_max - 2) / 2)."""
        return max(Fraction(0), (self.lambda_max - 2) / 2)


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


def chsh(box: Box) -> ChshReport:
    e = [box.expectation(a, b) for a in range(2) for b in range(2)]
    total = sum(e)
    values = tuple(abs(total - 2 * e[k]) for k in range(4))
    return ChshReport(values=values, lambda_max=max(values))


def signal(box: Box) -> SignalReport:
    s_a_to_b = max(
        abs(box.marginal_b(0, b) - box.marginal_b(1, b)) for b in range(2)
    )
    s_b_to_a = max(
        abs(box.marginal_a(a, 0) - box.marginal_a(a, 1)) for a in range(2)
    )
    return SignalReport(s_a_to_b=s_a_to_b, s_b_to_a=s_b_to_a, s=max(s_a_to_b, s_b_to_a))


def _residual(p: Fraction) -> Fraction:
    """min(p, 1 - p): the error of the best constant guess for a bit."""
    return min(p, 1 - p)


Residuals = tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def _residuals(box: Box) -> Residuals:
    """The residuals of P(A = 0 | a, b) and of P(B = 0 | a, b) at the settings
    (0,0), (0,1), (1,0), (1,1): the shared input of both unpredictability
    variants and of the uncertainty report."""
    settings = [(a, b) for a in range(2) for b in range(2)]
    return (
        tuple(_residual(box.marginal_a(a, b)) for a, b in settings),
        tuple(_residual(box.marginal_b(a, b)) for a, b in settings),
    )


def _unpredictability_of(residuals: Residuals, variant: str) -> Fraction:
    res_a, res_b = residuals
    if variant == "formula":
        return max(min(x, y) for x, y in zip(res_a, res_b))
    return max(max(res_a), max(res_b))


def _uncertainty_of(residuals: Residuals) -> UncertaintyReport:
    res_a, res_b = residuals
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


def unpredictability(box: Box, variant: str = "formula") -> Fraction:
    """Outcome unpredictability of the box.

    formula:   max over settings of the smaller party-residual there.
    per_party: max over parties of that party's worst-setting residual; this
               always dominates the formula variant.
    """
    if variant not in UNPREDICTABILITY_VARIANTS:
        raise ValueError(f"unknown unpredictability variant: {variant!r}")
    return _unpredictability_of(_residuals(box), variant)


def uncertainty(box: Box) -> UncertaintyReport:
    return _uncertainty_of(_residuals(box))


def lhv_admissible(box: Box) -> bool:
    """True iff the box is explainable by shared randomness alone: no
    signaling and no correlator sum beyond 2."""
    return signal(box).s == 0 and chsh(box).lambda_max <= 2


@dataclass(frozen=True)
class Analysis:
    """A box and its exact cost C, with the per-box quantities of the tracked
    inequalities.  Each is computed on its first read and kept."""

    box: Box
    c: Fraction

    @cached_property
    def chsh(self) -> ChshReport:
        return chsh(self.box)

    @cached_property
    def signal(self) -> SignalReport:
        return signal(self.box)

    @cached_property
    def s(self) -> Fraction:
        return self.signal.s

    @cached_property
    def eta(self) -> Fraction:
        return self.c - self.s

    @property
    def lower_bound(self) -> Fraction:
        """The facet bound of the cached CHSH report, a lower bound on c."""
        return self.chsh.facet_bound

    @cached_property
    def _residuals(self) -> Residuals:
        return _residuals(self.box)

    @cached_property
    def i_formula(self) -> Fraction:
        return _unpredictability_of(self._residuals, "formula")

    @cached_property
    def i_per_party(self) -> Fraction:
        return _unpredictability_of(self._residuals, "per_party")

    @cached_property
    def uncertainty(self) -> UncertaintyReport:
        return _uncertainty_of(self._residuals)
