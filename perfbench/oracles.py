"""Answers computed without sftkit's rank, Smith-form or formula code.

The checks in ``workloads.py`` compare each job's output with these.  Ranks
come from sympy's ``DomainMatrix`` and invariant factors from sympy's Smith
form over Q[U]; the closed forms come from the mathematics stated in each
docstring, not from the program's own tables.  Importing this module imports
sympy, so it is imported only after the timed rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import QQ, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

_U = symbols("U")
QQ_U = QQ[_U]


# conversion ------------------------------------------------------------------


def _qq(x) -> object:
    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def _qu(p) -> object:
    """A sftkit UPoly (coefficients low to high) as an element of QQ[U]."""
    return QQ_U.ring.from_list([_qq(c) for c in reversed(p.coeffs)]) if p.coeffs else QQ_U.zero


def monic_coeffs(p) -> tuple:
    """Monic coefficients, low degree first, of a nonzero element of QQ[U]."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(p.to_dense())]
    return tuple(c / coeffs[-1] for c in coeffs)


def q_matrix(rows) -> DomainMatrix:
    nr, nc = len(rows), len(rows[0]) if rows else 0
    return DomainMatrix([[_qq(x) for x in r] for r in rows], (nr, nc), QQ)


def qu_matrix(rows) -> DomainMatrix:
    nr, nc = len(rows), len(rows[0]) if rows else 0
    return DomainMatrix([[_qu(x) for x in r] for r in rows], (nr, nc), QQ_U)


def q_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return q_matrix(rows).rank()


def qu_rank(rows) -> int:
    """Rank over the fraction field Q(U)."""
    if not rows or not rows[0]:
        return 0
    return qu_matrix(rows).to_field().rank()


def at_u_equals_one(rows) -> list:
    return [[sum(Fraction(c) for c in x.coeffs) for x in r] for r in rows]


def nonunit_factors(rows) -> tuple:
    """Non-unit invariant factors over Q[U], monic, in divisibility order."""
    if not rows or not rows[0]:
        return ()
    return tuple(monic_coeffs(f) for f in invariant_factors(qu_matrix(rows))
                 if f and f.degree() > 0)


# complexes -------------------------------------------------------------------


def boundary_rows(cx, k):
    """Rows of d_k : C_k -> C_{k-1} as stored (zero matrix when absent)."""
    if k in cx.boundary:
        return [list(r) for r in cx.boundary[k].rows]
    return []


def free_ranks_q(cx, lo, hi) -> dict:
    """dim C_k - rk d_k - rk d_{k+1} over Q, ranks by sympy."""
    ranks = {k: q_rank(boundary_rows(cx, k)) for k in range(lo, hi + 2)}
    return {k: cx.dim(k) - ranks[k] - ranks[k + 1] for k in range(lo, hi + 1)}


def homology_qu(cx, lo, hi) -> dict:
    """Free rank and torsion over Q[U]: over a PID ker d_k is a summand, so
    H_k = Q[U]^(dim C_k - rk d_k - rk d_{k+1}) plus the non-unit invariant
    factors of d_{k+1}."""
    ranks = {k: qu_rank(boundary_rows(cx, k)) for k in range(lo, hi + 2)}
    return {
        k: (cx.dim(k) - ranks[k] - ranks[k + 1], nonunit_factors(boundary_rows(cx, k + 1)))
        for k in range(lo, hi + 1)
    }


def compare(name, got: dict, want: dict):
    for k in sorted(want):
        if got.get(k) != want[k]:
            return f"{name}: degree {k} gives {got.get(k)}, expected {want[k]}"
    if set(got) != set(want):
        return f"{name}: degrees {sorted(got)} differ from {sorted(want)}"
    return None


# closed forms ------------------------------------------------------------------


def exact_pair_hc(lo, hi) -> dict:
    """T(a, b) with da = b is quasi-isomorphic to the ground field, so in
    characteristic 0 its reduced cyclic homology vanishes."""
    return {k: (0, ()) for k in range(lo, hi + 1)}


def unit_exact_hc(lo, hi) -> dict:
    """With dx = 1 the algebra is acyclic and HC reduces to that of the unit:
    one class in every odd positive degree."""
    return {k: (1 if k >= 1 and k % 2 else 0, ()) for k in range(lo, hi + 1)}


def hc_window_classes(n) -> dict:
    """Nonzero cyclic classes of link 2 in degrees 2n-1, 2n, 2n+1 of the chord
    algebra on a_k (degree 2k-1) and b_k (degree n-2+2k), links k = 1, 2.

    A link-2 word is one link-2 letter or two link-1 letters.  The rotation
    of a two-letter word xy is (-1)^{|x||y|} yx, so xx survives exactly when
    |x| is even; xy and yx (x != y) form one class.  Returns
    {degree: sorted canonical words}.
    """
    deg = {"a1": 1, "b1": n, "a2": 3, "b2": n + 2}
    words = [(g,) for g in ("a2", "b2")]
    words += [(x, y) for x in ("a1", "b1") for y in ("a1", "b1")]
    out = {d: set() for d in (2 * n - 1, 2 * n, 2 * n + 1)}
    for w in words:
        d = sum(deg[g] for g in w)
        if d not in out:
            continue
        if len(w) == 2 and w[0] == w[1] and deg[w[0]] % 2:
            continue
        out[d].add(min(w, w[::-1]))
    return {d: sorted(v) for d, v in out.items()}


def cz_rotation(lam: Fraction) -> int:
    return 1 + 2 * math.floor(lam)


def rs_shear(blocks: int, k: int) -> Fraction:
    return Fraction(blocks, 2) + 2 * k


def sigma_rank_table(n, N) -> dict:
    """Linearized rank at index k < N: one class from the family of indices
    2j, one from the family n-1+2j (j >= 1)."""
    return {k: int(k % 2 == 0) + int(k >= n + 1 and (k - n + 1) % 2 == 0) for k in range(1, N)}


def cone_pattern(k, n, top) -> dict:
    return {d: int(d >= n - k and (d - n + k) % 2 == 0) for d in range(top + 1)}


def orbit_rows(n, N) -> list:
    """(family, cover, index, degree, link) of the model's orbit families."""
    rows = [("orbit_a", j, 2 * j) for j in range(1, N) if 2 * j < N]
    rows += [("orbit_b", j, n - 1 + 2 * j) for j in range(1, N) if n - 1 + 2 * j < N]
    return sorted(((f, j, cz, cz + n - 3, j) for f, j, cz in rows),
                  key=lambda r: (r[2], r[0], r[1]))


def admissible(r_plus: Fraction, r_minus: Fraction, energy: Fraction) -> bool:
    """r+ > e^E r-, decided in floating point on inputs far from equality."""
    return float(r_plus) > math.exp(float(energy)) * float(r_minus)


def forest_intersection(doc) -> int:
    """Sum of vertex data s_v minus interior cylinder terms (-p_n on orbits in V)."""
    total = sum(v["s"] for v in doc["vertices"])
    for e in doc["edges"]:
        if e["src"] is not None and e["dst"] is not None and e["orbit"]["in_v"]:
            total += e["orbit"]["p_n"]
    return total


def forest_psi_exponent(doc) -> int:
    """Exponent of the U-monomial twisting weight: intersection + outputs in V."""
    outputs_in_v = sum(1 for e in doc["edges"] if e["dst"] is None and e["orbit"]["in_v"])
    return forest_intersection(doc) + outputs_in_v
