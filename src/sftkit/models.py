"""Explicit open-book model: orbit/chord tables, rank tables, cyclic window.

The model lives on the unit cotangent-bundle open book in dimension 2n-1
(n >= 4) with a rotation parameter a.  For a beyond an explicit threshold,
the only generators below a degree window come in two orbit families
(indices 2k and n-1+2k, both linking k) and two chord families (degrees
2k-1 and n-2+2k, both linking k).  Everything downstream -- the congruence
obstruction that kills the low-degree differential, the linearized rank
table, the bidegree-(2n, 2) cyclic window, and the surgery cone pattern --
is finite bookkeeping over those tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import cyclic as cyclic_mod
from . import dga as dga_mod
from .errors import OddDimension, OutOfRange, TooLarge, WindowNotGuaranteed
from .ring import RING_Q

FAMILY_ORBIT_A = "orbit_a"
FAMILY_ORBIT_B = "orbit_b"
FAMILY_CHORD_A = "chord_a"
FAMILY_CHORD_B = "chord_b"


@dataclass(frozen=True)
class ModelParams:
    n: int        # half-dimension parameter, ambient dimension 2n-1
    a: float      # rotation parameter of the supporting form
    N: int        # degree window: indices < N are guaranteed complete
    rho: float    # length of the shortest closed geodesic feeding the bound

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("the model requires n >= 4")
        if self.a <= 0 or self.rho <= 0:
            raise ValueError("a and rho must be positive")
        if self.N <= 0:
            raise ValueError("window bound N must be positive")


@dataclass(frozen=True)
class TableRow:
    family: str
    cover: int
    cz: int
    generator: dga_mod.Generator


GeneratorTable = Tuple[TableRow, ...]


# pi to 100 decimal places, truncated
PI = Fraction("3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679")

# a*rho/pi within this relative distance of an integer is taken as that integer
SNAP_TOLERANCE = Fraction(1, 10**9)

# Most rows of an orbit, chord, rank or cone table that the model will build.
# The tables grow linearly in N, the link or the window top; the largest one
# allowed, the rank table of N = 10001, takes under 0.3 s and about 10 MB with
# its homology check.
TABLE_LIMIT = 10_000


def _refuse_large_table(name: str, rows: int) -> None:
    if rows > TABLE_LIMIT:
        raise TooLarge(f"the {name} table would have {rows} rows (limit {TABLE_LIMIT})")


def interior_orbit_bound(a: float, rho: float) -> int:
    """Strict lower bound floor(a*rho/pi) for indices of orbits away from the
    model neighborhood.

    Floating inputs within 1e-9 (relative) of making a*rho/pi an integer are
    taken to mean that integer exactly, so e.g. a = 10, rho = pi gives 10.
    The quotient is exact against 100 digits of pi, so the floor is right
    while a*rho/pi stays below about 10**90.
    """
    if a <= 0 or rho <= 0:
        raise ValueError("a and rho must be positive")
    x = _exact(a) * _exact(rho) / PI
    nearest = round(x)
    if abs(x - nearest) <= SNAP_TOLERANCE * max(1, abs(x)):
        return nearest
    return math.floor(x)


def threshold_parameter(N: int, rho: float) -> float:
    """Smallest a certifying that interior orbits clear the window [0, N)."""
    q = N * PI / _exact(rho)
    try:
        return float(q)
    except OverflowError:  # rho below 2**-1000 or so
        return math.inf if q > 0 else -math.inf


def _exact(x) -> Fraction:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"a and rho must be finite, got {x}")
    return Fraction(x)


def model_orbits(params: ModelParams) -> GeneratorTable:
    """All orbit-family covers with index < N, with degrees and linking.

    Indices are 2k for the short family and (n-1) + 2k for the long one;
    homological degree is index + n - 3 and the linking degree is the cover
    number k.  Requires a large enough to push every other orbit past N.
    """
    n, N = params.n, params.N
    _refuse_large_table("orbit", (N - 1) // 2 + max(0, (N - n) // 2))
    if interior_orbit_bound(params.a, params.rho) < N:
        raise WindowNotGuaranteed(
            f"a={params.a} gives interior bound {interior_orbit_bound(params.a, params.rho)} < N={N}; "
            f"need a >= {threshold_parameter(N, params.rho)}"
        )
    rows: List[TableRow] = []
    for family, prefix, base in ((FAMILY_ORBIT_A, "ga", 0), (FAMILY_ORBIT_B, "gb", n - 1)):
        for k in range(1, (N - base + 1) // 2):
            cz = base + 2 * k
            rows.append(TableRow(family, k, cz, dga_mod.Generator(
                f"{prefix}{k}", cz + n - 3, link=k)))
    return tuple(sorted(rows, key=lambda r: (r.cz, r.family, r.cover)))


def model_chords(n: int, max_link: int) -> GeneratorTable:
    """Chord families a_k (degree 2k-1) and b_k (degree n-2+2k), linking k."""
    if n < 4:
        raise ValueError("the model requires n >= 4")
    _refuse_large_table("chord", 2 * max_link)
    rows: List[TableRow] = []
    for family, prefix, base in ((FAMILY_CHORD_A, "a", -1), (FAMILY_CHORD_B, "b", n - 2)):
        for k in range(1, max_link + 1):
            deg = base + 2 * k
            rows.append(TableRow(family, k, deg + 1, dga_mod.Generator(
                f"{prefix}{k}", deg, link=k, kind=("chord", 0, 0))))
    return tuple(sorted(rows, key=lambda r: (r.generator.degree, r.family, r.cover)))


@dataclass(frozen=True)
class ObstructionReport:
    modulus: int
    congruence_failures: Tuple[str, ...]
    differential_vanishes: bool

    @property
    def passed(self) -> bool:
        return not self.congruence_failures and self.differential_vanishes


def parity_obstruction(n: int, table: GeneratorTable) -> ObstructionReport:
    """Check index == 2 * linking mod (n-1) and conclude the window differential
    vanishes.

    Once every generator satisfies the congruence, a differential term from
    one generator to another (degree drop 1, equal linking) would force
    1 == 0 mod (n-1), impossible for n >= 4; so no generator-to-generator
    term exists and the linearized complex has zero differential.
    """
    modulus = n - 1
    failures = []
    for row in table:
        link = row.generator.link or 0
        if (row.cz - 2 * link) % modulus != 0:
            failures.append(
                f"{row.generator.name}: index {row.cz} != 2*{link} mod {modulus}"
            )
    vanishes = not failures and (1 % modulus) != 0
    return ObstructionReport(modulus, tuple(failures), vanishes)


def sigma_sets(n: int, N: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Index supports of the two orbit families below N."""
    sigma1 = tuple(k for k in range(1, N) if k % 2 == 0)
    sigma2 = tuple(k for k in range(1, N) if k >= n + 1 and (k - (n - 1)) % 2 == 0)
    return sigma1, sigma2


def linearized_ranks(n: int, N: int) -> Dict[int, int]:
    """Rank table keyed by index k < N: 2 on both families, 1 on one, else 0.

    The table is recomputed as the homology of the zero-differential complex
    on the model orbit table, and the two answers are required to agree.
    """
    if n < 4:
        raise ValueError("the model requires n >= 4")
    if N <= 0:
        raise ValueError("window bound N must be positive")
    _refuse_large_table("rank", N - 1)
    sigma1, sigma2 = sigma_sets(n, N)
    table = {k: 0 for k in range(1, N)}
    for k in sigma1:
        table[k] += 1
    for k in sigma2:
        table[k] += 1

    params = ModelParams(n=n, a=threshold_parameter(N, math.pi) + 1.0, N=N, rho=math.pi)
    rows = model_orbits(params)
    obstruction = parity_obstruction(n, rows)
    if not obstruction.passed:
        raise AssertionError("congruence obstruction unexpectedly failed")
    algebra = dga_mod.DGA(RING_Q, dga_mod.MODE_COMMUTATIVE,
                          [r.generator for r in rows])
    aug = dga_mod.augment(algebra)
    complex_ = dga_mod.linearize(algebra, aug)
    shift = n - 3
    summary = dga_mod.homology(complex_, 1 + shift, N - 1 + shift)
    computed = {k: summary[k + shift].free_rank for k in range(1, N)}
    if computed != table:
        raise AssertionError(
            f"rank table mismatch: formula {table} vs homology {computed}"
        )
    return table


@dataclass(frozen=True)
class CyclicWindowResult:
    bidegree: Tuple[int, int]
    rank: int
    representative: Optional[Tuple[str, ...]]
    neighbor_ranks: Dict[int, int]


def hc_window(n: int) -> CyclicWindowResult:
    """Rank of the reduced cyclic group in bidegree (2n, 2) of the chord algebra.

    For even n >= 4 the only class is the square of the first long chord:
    the neighboring bidegrees (2n-1, 2) and (2n+1, 2) carry no words at all,
    so the rank is differential-independent and equals 1.
    """
    if n < 4 or n % 2 != 0:
        raise OddDimension(f"the cyclic window computation needs even n >= 4, got {n}")
    rows = model_chords(n, max_link=2)
    algebra = dga_mod.DGA(RING_Q, dga_mod.MODE_ASSOCIATIVE,
                          [r.generator for r in rows])
    complex_ = cyclic_mod.cyclic_complex(algebra, 2 * n, 2 * n, link=2)
    basis = complex_.basis
    neighbors = {2 * n - 1: len(basis[2 * n - 1]), 2 * n + 1: len(basis[2 * n + 1])}
    rank = dga_mod.homology(complex_, 2 * n, 2 * n)[2 * n].free_rank
    rep = basis[2 * n][0] if basis[2 * n] else None
    return CyclicWindowResult((2 * n, 2), rank, rep, neighbors)


def surgery_cone_ranks(k: int, n: int, window_top: int) -> Dict[int, int]:
    """Cone ranks after subcritical surgery on a k-sphere: one copy in each
    degree n-k, n-k+2, n-k+4, ... up to the window top."""
    if not (1 <= k <= n - 2):
        raise OutOfRange(f"isotropic subcritical range is 1 <= k <= n-2, got k={k}")
    _refuse_large_table("cone", window_top + 1)
    out = {}
    for degree in range(0, window_top + 1):
        out[degree] = 1 if degree >= n - k and (degree - (n - k)) % 2 == 0 else 0
    return out
