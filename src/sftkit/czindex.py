"""Conley-Zehnder and Robbin-Salamon index calculators.

The families covered are the ones that actually occur in the geometry this
toolkit serves: planar rotation blocks exp(t*theta*J0) coming from an elliptic
local model, shear blocks [[1,0],[2t,1]] (with optional loops appended), the
two tubular-neighborhood orbit families of a binding region, and generic
paths generated by a positive-definite quadratic form, where the index is
read off from integer crossings of a monotone eigenvalue trajectory.

Conventions: positive elliptic is the default sign; a path whose eigenvalue
trajectory ends on an integer is rejected as degenerate rather than rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadResonance, DegeneratePath, GenericityViolated, TooLarge

INTEGER_TOL = 1e-12

# Most grid steps cz_crossing will sample.  The grid only checks that the
# trajectory increases; a million steps resolve it to 1e-6 of the unit
# interval and take about 0.1 s, while memory stays constant.
SUBDIVISION_LIMIT = 10**6


Scalar = Union[int, float, Fraction]


def _floor_guarded(x: Scalar) -> int:
    """Floor that refuses values within INTEGER_TOL of an integer (exact ints excepted)
    with DegeneratePath, and infinities and NaN with ValueError."""
    if isinstance(x, (int, Fraction)):
        if x == int(x):
            raise DegeneratePath(f"value {x} is an integer")
        return math.floor(x)
    if not math.isfinite(x):
        raise ValueError(f"value {x} is not a finite number")
    nearest = round(x)
    if abs(x - nearest) < INTEGER_TOL:
        raise DegeneratePath(f"value {x} is within {INTEGER_TOL} of the integer {nearest}")
    return math.floor(x)


def cz_rotation(lam: Scalar, negative_elliptic: bool = False) -> int:
    """Index of the rotation path exp(2*pi*i*lam*t), lam > 0 nondegenerate.

    Positive elliptic gives 1 + 2*floor(lam); the negative elliptic variant
    is its negation.  Integer lam violates the spectral gap condition and
    raises DegeneratePath.
    """
    if lam < 0:
        raise ValueError("rotation parameter must be nonnegative")
    base = 1 + 2 * _floor_guarded(lam)
    return -base if negative_elliptic else base


def rs_shear(blocks: int, loop_k: int = 0) -> Fraction:
    """Robbin-Salamon index of a shear path with `blocks` unit shear blocks.

    Appending k full positive loops adds 2k (loop property of the index).
    """
    if blocks < 1:
        raise ValueError("need at least one shear block")
    if loop_k < 0:
        raise ValueError("loop count must be nonnegative")
    return Fraction(blocks, 2) + 2 * loop_k


def cz_crossing(lam: Callable[[float], float], subdivisions: int = 256) -> int:
    """Index 1 + 2 * #{t in (0,1) : lam(t) integer} for a monotone trajectory.

    ``lam`` is the eigenvalue trajectory t -> lam(t).  It is sampled on a grid
    of ``subdivisions`` steps, where it must be strictly increasing from 0; it
    then crosses each integer below lam(1) once, so the count is
    floor(lam(1)).  A trajectory ending within tolerance of an integer raises
    DegeneratePath; a NaN sample fails both the start and the increase test.
    More than SUBDIVISION_LIMIT steps raise TooLarge before any sample.
    """
    if subdivisions < 2:
        raise ValueError("need at least two subdivisions")
    if subdivisions > SUBDIVISION_LIMIT:
        raise TooLarge(f"{subdivisions} subdivisions exceed the limit of {SUBDIVISION_LIMIT}")
    if not abs(lam(0.0)) <= INTEGER_TOL:
        raise ValueError("trajectory must start at 0")
    samples = (lam(i / subdivisions) for i in range(subdivisions + 1))
    end = next(samples)
    for value in samples:
        if not value > end:
            raise ValueError("eigenvalue trajectory is not strictly increasing on the grid")
        end = value
    return 1 + 2 * _floor_guarded(end)


class GammaOrbitResult(NamedTuple):
    index: int
    period: float


def cz_gamma_orbit(
    kind: str,
    P_U: Scalar,
    a: Scalar,
    cz_base: int,
    extra: Optional[Tuple[Scalar, int, int]] = None,
) -> GammaOrbitResult:
    """Index of the two tubular-neighborhood orbit families over a base orbit.

    kind "gamma1" is the central orbit (period P_U): index
    1 + 2*floor(P_U*a / 4pi) + cz_base.  kind "gamma2" spirals at radius
    r0 in (0,1) with winding data (m, n) subject to the exact resonance
    a*P_U / (4pi*sqrt(1-r0^2)) = m/n; its period is (2-r0^2)*2pi*m/a and its
    index is 1 + 2*floor(a*P2 / (pi*(2-r0^2)^2)) + cz_base, where cz_base is
    the index of the n-fold cover of the base orbit.

    An eigenvalue trajectory ending on an integer means the rotation
    parameter resonates with the supplied action data (GenericityViolated).
    """
    a = float(a)
    P_U = float(P_U)
    if not (0 < a < math.inf and 0 < P_U < math.inf):
        raise ValueError("a and P_U must be positive and finite")

    if kind == "gamma1":
        period = P_U
        lam_end = a * P_U / (4 * math.pi)
    elif kind == "gamma2":
        if extra is None:
            raise ValueError("gamma2 requires (r0, m, n_cover)")
        r0, m, n = extra
        r0 = float(r0)
        if not (0.0 < r0 < 1.0):
            raise BadResonance(f"radius r0={r0} must lie strictly inside (0,1)")
        if m <= 0 or n <= 0:
            raise BadResonance("winding numbers m, n must be positive")
        ratio = a * P_U / (4 * math.pi * math.sqrt(1.0 - r0 * r0))
        if abs(ratio - m / n) > 1e-9 * max(1.0, abs(ratio)):
            raise BadResonance(
                f"a*P_U/(4*pi*sqrt(1-r0^2)) = {ratio}, not the required {m}/{n}"
            )
        period = (2.0 - r0 * r0) * 2.0 * math.pi * m / a
        lam_end = a * period / (math.pi * (2.0 - r0 * r0) ** 2)
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    try:
        fl = _floor_guarded(lam_end)
    except DegeneratePath as exc:
        raise GenericityViolated(str(exc)) from exc
    return GammaOrbitResult(1 + 2 * fl + cz_base, period)


class NormalIndexData(NamedTuple):
    """Floor/ceiling bookkeeping attached to a normal index."""

    cz_n: int
    p_n: int
    alpha_minus: int
    alpha_plus: int


def normal_index_data(cz_n: int) -> NormalIndexData:
    alpha_minus = math.floor(cz_n / 2)
    alpha_plus = math.ceil(cz_n / 2)
    return NormalIndexData(cz_n, alpha_plus - alpha_minus, alpha_minus, alpha_plus)


def cz_direct_sum(parts: Sequence[int]) -> int:
    """Index of a direct sum of symplectic paths: the sum of the indices."""
    return sum(parts)
