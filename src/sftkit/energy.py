"""Energy bookkeeping for cobordism decompositions and admissibility gates.

Type A data is a pair of cutting constants (C-, C+) with energy C- + C+;
Type B data is a sampled family (C2, C1, C1~, C0)(t) whose energy is the
supremum of C2 + C0 - C1 - C1~ over the samples.  The admissibility gate
r+ > e^E r- decides when a cobordism induces a map; since e^E is
transcendental for rational nonzero E, the comparison encloses it between
dyadic rationals with outward rounding and refuses to answer within 1e-12 of
equality rather than silently flipping a strict inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple, Union

from .errors import BoundaryConditionViolated, NotSupported, UnresolvedComparison

Real = Union[int, float, Fraction]

EQUALITY_TOLERANCE = Fraction(1, 10**12)

# Working precisions in bits, tried in turn until the comparison separates.
_PRECISIONS = (80, 160, 320)
# log2(e) = 1.44269504088896...
_LOG2E_LOW, _LOG2E_HIGH = Fraction(14426950408, 10**10), Fraction(14426950409, 10**10)


def exp_scaled_compare(lhs: Real, coeff: Real, energy: Real, rhs: Real, strict: bool = True) -> bool:
    """Decide lhs > coeff * e^energy * rhs (or >= when strict=False), carefully.

    Zero energy is decided exactly.  Otherwise e^energy is enclosed between
    two dyadic rationals (``_exp_bounds``) and the difference
    lhs - coeff*e^energy*rhs between two exact rationals; if the difference
    cannot be resolved outside the 1e-12 band the comparison raises
    UnresolvedComparison.  An energy of -inf is e^E = 0; an infinite or NaN
    input anywhere else decides (or spoils) the comparison in floats.
    """
    if rhs == 0:
        return lhs > 0 if strict else lhs >= 0
    if energy == 0:
        product = Fraction(coeff) * Fraction(rhs) if not isinstance(coeff, float) and not isinstance(rhs, float) else coeff * rhs
        return lhs > product if strict else lhs >= product
    if not (_finite(lhs) and _finite(coeff) and _finite(rhs) and (_finite(energy) or energy < 0)):
        diff = float(lhs) - float(coeff) * (1.0 if _finite(energy) else math.exp(energy)) * float(rhs)
        if math.isnan(diff):
            raise UnresolvedComparison(
                "could not separate lhs from coeff*e^E*rhs: enclosure -inf..inf")
        return diff > 0
    a = Fraction(lhs)
    p = Fraction(coeff) * Fraction(rhs)
    above, below = a - EQUALITY_TOLERANCE, a + EQUALITY_TOLERANCE
    for bits in _PRECISIONS:
        low, high = _exp_bounds(energy, bits)
        if p < 0:
            low, high = high, low
        # the difference a - p*e^E lies in [a - p*high, a - p*low]
        if _sign(below, p, low) < 0:
            return False
        if _sign(above, p, high) > 0:
            return True
        if _sign(below, p, high) > 0 and _sign(above, p, low) < 0:
            raise UnresolvedComparison(
                f"difference {_float(a, p, high)}..{_float(a, p, low)} is within 1e-12 of equality"
            )
    raise UnresolvedComparison(
        f"could not separate lhs from coeff*e^E*rhs: enclosure "
        f"{_float(a, p, high)}..{_float(a, p, low)}"
    )


def _finite(x: Real) -> bool:
    return not isinstance(x, float) or math.isfinite(x)


def _exp_bounds(energy: Real, bits: int):
    """Bounds (m, x) below and above e^energy, each meaning m * 2**x.

    The energy is halved k times to r with |r| <= 1/2; the Taylor series of
    e^r is summed in fixed point with p = bits + k + 8 fractional bits until
    a term truncates to zero (each truncated term is under 2 units low, and
    the tail is under twice the first omitted term); the bounds are then
    squared k times, rounded outward to p bits after each squaring.
    """
    if energy == -math.inf:
        return (0, 0), (0, 0)
    r = Fraction(energy)
    num, den = abs(r.numerator), r.denominator
    k = max(0, (2 * num).bit_length() - den.bit_length())
    while 2 * num > den << k:
        k += 1
    if k > 64:
        # |energy| > 2**63: the exponent of e^energy runs to 10**19 bits,
        # beyond any rational it could be compared with, so a 10-digit
        # enclosure of log2(e) decides every comparison
        lo, hi = sorted((r * _LOG2E_LOW, r * _LOG2E_HIGH))
        return (1, math.floor(lo)), (1, math.ceil(hi))
    p = bits + k + 8
    den <<= k
    alternate = r < 0
    total = term = 1 << p
    j = 0
    while term:
        j += 1
        term = term * num // (den * j)
        total += -term if alternate and j % 2 else term
    err = 2 * j + 2
    lo, hi, lo_x, hi_x = total - err, total + err, -p, -p
    for _ in range(k):
        lo, hi, lo_x, hi_x = lo * lo, hi * hi, 2 * lo_x, 2 * hi_x
        shift = lo.bit_length() - p
        if shift > 0:
            lo >>= shift
            lo_x += shift
        shift = hi.bit_length() - p
        if shift > 0:
            hi = -(-hi >> shift)
            hi_x += shift
    return (lo, lo_x), (hi, hi_x)


def _sign(u: Fraction, p: Fraction, bound) -> int:
    """Sign of u - p * m * 2**x for bound = (m, x).

    2**x is built only when the two sides are within a factor of 4 of each
    other, so a huge |x| costs nothing.
    """
    m, x = bound
    a = u.numerator * p.denominator
    b = p.numerator * m * u.denominator
    gap = a.bit_length() - b.bit_length() - x
    if not b or (a and gap > 1):
        d = a
    elif not a or gap < -1:
        d = -b
    else:
        d = a - (b << x) if x >= 0 else (a << -x) - b
    return (d > 0) - (d < 0)


def _float(a: Fraction, p: Fraction, bound) -> float:
    """a - p * m * 2**x as a float, for messages.  Past |x| = 2**16 the term
    is taken as 0 or as infinite: no float could show the difference."""
    m, x = bound
    if not p or x < -(1 << 16):
        q = a
    elif x > 1 << 16:
        return -math.inf if p > 0 else math.inf
    else:
        q = a - p * m * (Fraction(1 << x) if x >= 0 else Fraction(1, 1 << -x))
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


@dataclass(frozen=True)
class TypeADecomposition:
    """Cutting constants of a two-sided decomposition; C- is 0 for fillings."""

    c_minus: Real = 0
    c_plus: Real = 0
    empty_negative_end: bool = False

    def __post_init__(self):
        if self.empty_negative_end and self.c_minus != 0:
            raise ValueError("an empty negative end forces c_minus = 0")


def type_a_energy(d: TypeADecomposition) -> Real:
    """Energy C- + C+; a filling (empty negative end) is unbounded below."""
    if d.empty_negative_end:
        return float("-inf")
    return d.c_minus + d.c_plus


class TypeBSample(NamedTuple):
    t: Real
    c2: Real
    c1: Real
    c1_tilde: Real
    c0: Real


@dataclass(frozen=True)
class TypeBDecomposition:
    """Sampled one-parameter family of cutting constants over t in [0, T]."""

    samples: Tuple[TypeBSample, ...]

    def __init__(self, samples: Sequence):
        rows = tuple(TypeBSample(*s) for s in samples)
        if not rows:
            raise ValueError("need at least one sample")
        if any(a.t > b.t for a, b in zip(rows, rows[1:])):
            raise ValueError("samples must be ordered by t")
        object.__setattr__(self, "samples", rows)


class TypeBEnergy(NamedTuple):
    energy: Real
    induced_at_zero: Real
    induced_at_infinity: Real


def type_b_energy(d: TypeBDecomposition) -> TypeBEnergy:
    """Supremum of C2 + C0 - C1 - C1~ over the samples.

    The t = 0 sample must satisfy C1~(0) = -C1(0); the decomposition it
    induces there has energy C2(0) + C0(0), and the pair induced by the
    stabilized tail (read off the last sample) has total energy equal to the
    functional there.  Both are dominated by the supremum, which is itself a
    lower bound for the true supremum of the sampled family.
    """
    first = d.samples[0]
    if first.c1_tilde != -first.c1:
        raise BoundaryConditionViolated(
            f"need c1_tilde(0) = -c1(0), got {first.c1_tilde} vs {-first.c1}"
        )
    energy = max(s.c2 + s.c0 - s.c1 - s.c1_tilde for s in d.samples)
    induced = first.c2 + first.c0
    last = d.samples[-1]
    at_infinity = last.c2 + last.c0 - last.c1 - last.c1_tilde
    assert induced <= energy and at_infinity <= energy
    return TypeBEnergy(energy, induced, at_infinity)


def glue_energy(e1: Real, e2: Real, one_is_symplectization: bool) -> Real:
    """Energy of a gluing; additive only across a symplectization factor."""
    if not one_is_symplectization:
        raise NotSupported(
            "energy is not additive under gluing unless one factor is a symplectization"
        )
    return e1 + e2


def admissible(r_plus: Real, r_minus: Real, energy: Real, relaxed: bool = False) -> bool:
    """Admissibility of a cobordism with rotation parameters (r+, r-).

    Strict mode decides r+ > e^energy * r-.  Relaxed mode is the
    symplectization-with-equal-forms case: energy is forced to zero and the
    bar is r+ >= r-.
    """
    if r_plus <= 0:
        raise ValueError("r_plus must be positive")
    if r_minus < 0:
        raise ValueError("r_minus must be nonnegative")
    if relaxed:
        return r_plus >= r_minus
    return exp_scaled_compare(r_plus, 1, energy, r_minus, strict=True)
