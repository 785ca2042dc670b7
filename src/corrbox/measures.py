"""Exact scalar measures on correlation boxes.

Every measure is an integer kernel on the box's numerators num over its
denominator den: each value it returns is the numerator of the measure over
den, computed without tolerances and without a Fraction.  A Fraction is
built only for a value that is reported:

* chsh: the four one-minus-sign correlator sums (in absolute value) and their
  maximum; the maximum also covers the sign-reversed functionals.
* signal: how much each party's marginal moves with the other party's input.
* unpredictability: the guessing-residual of the outcomes, in two variants.
* uncertainty: per-party, per-setting guessing residuals and their maxima.

Both unpredictability variants and the uncertainty report derive from the
same eight residuals (_residuals), and the facet bound on C from the CHSH
maximum (_facet_bound).

Analysis is the per-box record: a box, its exact cost C, and the quantities
above (with eta = C - s and the facet bound).  It keeps each kernel's
integers from their first use, and numerators holds the five that verify's
slack table reads; its Fraction fields are built when read.
cost.CostReport is an Analysis with a decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boxes import Box

UNPREDICTABILITY_VARIANTS = ("formula", "per_party")

# The first cell of each setting column (a, b) = (0,0), (0,1), (1,0), (1,1).
_COLUMNS = (0, 4, 8, 12)


def _facet_bound(lambda_num: int, den: int) -> Fraction:
    """max(0, (lambda_max - 2) / 2) for lambda_max = lambda_num / den."""
    return Fraction(max(0, lambda_num - 2 * den), 2 * den)


@dataclass(frozen=True)
class ChshReport:
    """values[k]: |sum of the four correlators with a minus on term k|,
    terms ordered E(0,0), E(0,1), E(1,0), E(1,1).  lambda_max = max(values)."""

    values: tuple[Fraction, Fraction, Fraction, Fraction]
    lambda_max: Fraction

    @property
    def facet_bound(self) -> Fraction:
        """The facet lower bound on C: max(0, (lambda_max - 2) / 2)."""
        return _facet_bound(self.lambda_max.numerator, self.lambda_max.denominator)


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
    n = box.num
    e = [n[i] - n[i + 1] - n[i + 2] + n[i + 3] for i in _COLUMNS]
    total = sum(e)
    return tuple(abs(total - 2 * x) for x in e)


def _chsh_report(values: tuple[int, ...], den: int) -> ChshReport:
    report = tuple(Fraction(v, den) for v in values)
    return ChshReport(values=report, lambda_max=max(report))


def chsh(box: Box) -> ChshReport:
    return _chsh_report(_chsh_values(box), box.den)


def _signal_values(box: Box) -> tuple[int, int]:
    """The numerators of (s_a_to_b, s_b_to_a) over box.den: the largest move
    of P(B = 0 | a, b) with a, and of P(A = 0 | a, b) with b."""
    n = box.num
    a_to_b = max(
        abs(n[0] + n[2] - n[8] - n[10]), abs(n[4] + n[6] - n[12] - n[14])
    )
    b_to_a = max(abs(n[0] + n[1] - n[4] - n[5]), abs(n[8] + n[9] - n[12] - n[13]))
    return a_to_b, b_to_a


def _signal_report(values: tuple[int, int], den: int) -> SignalReport:
    a_to_b, b_to_a = Fraction(values[0], den), Fraction(values[1], den)
    return SignalReport(s_a_to_b=a_to_b, s_b_to_a=b_to_a, s=max(a_to_b, b_to_a))


def signal(box: Box) -> SignalReport:
    return _signal_report(_signal_values(box), box.den)


Residuals = tuple[tuple[int, ...], tuple[int, ...]]


def _residuals(box: Box) -> Residuals:
    """The numerators over box.den of the residuals min(m, 1 - m) of
    m = P(A = 0 | a, b) and of m = P(B = 0 | a, b) at the settings (0,0),
    (0,1), (1,0), (1,1): min(m, 1 - m) is the error of the best constant
    guess for a bit.  The shared input of both unpredictability variants and
    of the uncertainty report."""
    n, den = box.num, box.den
    res_a = []
    res_b = []
    for i in _COLUMNS:
        m_a = n[i] + n[i + 1]
        m_b = n[i] + n[i + 2]
        res_a.append(min(m_a, den - m_a))
        res_b.append(min(m_b, den - m_b))
    return tuple(res_a), tuple(res_b)


def _unpredictability_of(residuals: Residuals, variant: str) -> int:
    res_a, res_b = residuals
    if variant == "formula":
        return max(min(x, y) for x, y in zip(res_a, res_b))
    return max(max(res_a), max(res_b))


def _uncertainty_of(residuals: Residuals) -> tuple[tuple[int, ...], int, int]:
    """The numerators of delta at (A, 0), (A, 1), (B, 0), (B, 1), u_a and u_b."""
    res_a, res_b = residuals
    delta = (
        max(res_a[0], res_a[1]),
        max(res_a[2], res_a[3]),
        max(res_b[0], res_b[2]),
        max(res_b[1], res_b[3]),
    )
    return delta, max(delta[0], delta[1]), max(delta[2], delta[3])


def _uncertainty_report(residuals: Residuals, den: int) -> UncertaintyReport:
    delta = [Fraction(v, den) for v in _uncertainty_of(residuals)[0]]
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
    return Fraction(_unpredictability_of(_residuals(box), variant), box.den)


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
        residuals = self._residuals
        _, u_a, u_b = _uncertainty_of(residuals)
        return (
            max(self._signal),
            _unpredictability_of(residuals, "formula"),
            _unpredictability_of(residuals, "per_party"),
            u_a,
            u_b,
        )

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
        return _facet_bound(max(self._chsh), self.box.den)

    @cached_property
    def i_formula(self) -> Fraction:
        return Fraction(self.numerators[1], self.box.den)

    @cached_property
    def i_per_party(self) -> Fraction:
        return Fraction(self.numerators[2], self.box.den)

    @cached_property
    def uncertainty(self) -> UncertaintyReport:
        return _uncertainty_report(self._residuals, self.box.den)
