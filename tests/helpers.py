"""Shared test utilities: seeded RNG, random decorated forests, and
reference implementations kept as oracles for the fast paths.

The reference cyclic path (``_rotations``, ``rotation_class``, ``project_word``,
``cyclic_basis``) is the original rotate-and-normalize implementation: every
word of a degree is listed and canonicalized by walking its rotation orbit.
It is kept here as the oracle for the necklace generator in ``sftkit.cyclic``
and, since it takes raw words in both modes, for the commutative cyclic
differential, which sftkit reads off the word differential directly.
``apply_differential`` (every Leibniz term built whole and normalized),
``cyclic_differential`` and ``cyclic_boundaries`` are the raw-word oracles
for the seam-only Leibniz rule of ``DGA.apply_differential`` and
``cyclic.cyclic_complex``.

``dense_rank_q`` (dense Gauss-Jordan over Fractions) and ``reference_homology``
(kernel coordinates from the Smith form of the outgoing boundary, then a
second Smith form of the presentation of the incoming image) are the original
homology path, the oracles for ``ring._rank_q`` and ``dga.homology``.

``reference_smith_normal_form`` (with ``_euclid``) is the original Smith
form, a Euclidean loop over Fractions and ``UPoly`` that updates all four
transforms at every step: the oracle for ``ring.smith_normal_form`` and its
fraction-free kernel.  ``poly_gcd`` is the monic Euclidean gcd in Q[U].

``det`` (division-free cofactor expansion), ``rank`` (with ``_rank_qu``,
fraction-free elimination over Q(U)), ``dense_matmul`` (the oracle for the
sparse ``ExactMatrix.__matmul__``), ``evaluate`` (U := s) and
``boundary_matrix`` (a stored boundary or the zero matrix) are matrix
operations that only the tests use; so are ``multiply`` and ``scaled``
(algebra elements), ``exterior_orbit_multiset`` (forests), ``path_index``
(index by path family), ``triangle_third_bounds``, ``check_triangle_ranks``
and ``index_consistency`` (model tables).

``reference_exp_scaled_compare``, ``reference_interior_orbit_bound`` and
``reference_threshold_parameter`` are the original mpmath implementations
(interval ``exp`` at 80/160/320 bits, pi at 60 digits): the oracles for the
exact rational enclosures in ``sftkit.energy`` and ``sftkit.models``.

Random forests follow the standing geometric hypotheses: orbits in the
submanifold have normal parity 1 (positive elliptic), and by default every
vertex satisfies the representability lower bound (s >= -#(outgoing edges in
the submanifold) when all its ends lie there, s >= 0 otherwise).
"""

import os
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import mpmath

from sftkit.czindex import PathSpec, cz_crossing, rs_shear
from sftkit.dga import (DGA, AlgebraElement, ChainComplex, Coeff, HomologySummary, Word,
                        word_basis)
from sftkit.energy import EQUALITY_TOLERANCE
from sftkit.errors import InfiniteBasis, NonComposable, UnresolvedComparison
from sftkit.models import FAMILY_ORBIT_A, FAMILY_ORBIT_B, GeneratorTable
from sftkit.ring import (RING_Q, ExactMatrix, SmithResult, UPoly, _as_poly, _rank_q, coerce, one,
                         smith_normal_form, zero)
from sftkit.trees import DecoratedForest, Edge, OrbitLabel, Vertex


def seeded_rng(salt: int = 0) -> random.Random:
    seed = int(os.environ.get("SFTKIT_SEED", "20240809"))
    return random.Random(seed + salt)


ORBIT_POOL = [
    OrbitLabel("in1", in_v=True, p_n=1, period=1.0),
    OrbitLabel("in2", in_v=True, p_n=1, period=2.0),
    OrbitLabel("out1", in_v=False, p_n=0, period=1.5),
    OrbitLabel("out2", in_v=False, p_n=1, period=2.5),
    OrbitLabel("out3", in_v=False, p_n=0, period=0.5),
]


def random_forest(rng: random.Random, max_vertices: int = 8, positive: bool = True,
                  in_v_bias: float = 0.45) -> DecoratedForest:
    n_vertices = rng.randint(1, max_vertices)
    n_components = rng.randint(1, min(2, n_vertices))

    vertices = []
    edges = []
    counter = {"v": 0, "e": 0}

    def fresh(kind: str) -> str:
        counter[kind] += 1
        return f"{kind}{counter[kind]}"

    def random_orbit() -> OrbitLabel:
        if rng.random() < in_v_bias:
            return rng.choice(ORBIT_POOL[:2])
        return rng.choice(ORBIT_POOL[2:])

    budget = [n_vertices]

    def grow(parent_edge_orbit: OrbitLabel) -> str:
        vid = fresh("v")
        budget[0] -= 1
        n_children = rng.randint(0, 3)
        child_edges = []
        for _ in range(n_children):
            orbit = random_orbit()
            if budget[0] > 0 and rng.random() < 0.5:
                child = grow(orbit)
                child_edges.append(Edge(fresh("e"), vid, child, orbit))
            else:
                child_edges.append(Edge(fresh("e"), vid, None, orbit))
        adjacent = [parent_edge_orbit] + [e.orbit for e in child_edges]
        ends_in_v = all(o.in_v for o in adjacent)
        if positive:
            if ends_in_v:
                bound = -sum(1 for e in child_edges if e.orbit.in_v)
                s = rng.randint(bound, bound + 3)
            else:
                s = rng.randint(0, 3)
        else:
            s = rng.randint(-2, 3)
        vertices.append(Vertex(vid, (0, 0), s, representable=True, ends_in_v=ends_in_v))
        edges.extend(child_edges)
        return vid

    for _ in range(n_components):
        if budget[0] <= 0:
            break
        root_orbit = random_orbit()
        root = grow(root_orbit)
        edges.append(Edge(fresh("e"), None, root, root_orbit))
    return DecoratedForest(vertices, edges)


# reference cyclic path ------------------------------------------------------


def _rotations(dga: DGA, word: Word):
    """Yield (rotated normalized word, sign) over one full cycle, or None if
    the class dies (some rotation returns a word already seen with the
    opposite sign)."""
    seen: Dict[Word, int] = {}
    current = word
    sign = 1
    for _ in range(len(word)):
        if current in seen:
            if seen[current] != sign:
                return None
            break
        seen[current] = sign
        first = current[0]
        rest = current[1:]
        koszul = -1 if (dga.generators[first].parity and dga.degree_of_word(rest) % 2) else 1
        rotated, extra = dga.normalize_word(rest + (first,), koszul)
        if not extra:
            return None  # rotation hits an odd square in commutative mode
        current = rotated
        sign = sign * (1 if extra == one(dga.ring) else -1)
    else:
        # full cycle: returning to the start with -1 kills the class
        if current == word and sign == -1:
            return None
        if current in seen and seen[current] != sign:
            return None
    return seen


def rotation_class(dga: DGA, word: Word) -> Optional[Tuple[Word, int]]:
    """Canonical representative of the rotation class of ``word`` and the
    sign relating the word to it; None for classes that vanish."""
    if not word:
        raise ValueError("cyclic words are nonempty")
    try:
        seen = _rotations(dga, word)
    except NonComposable:
        return None  # the word does not close up cyclically
    if seen is None:
        return None
    canonical = min(seen)
    return canonical, seen[canonical]


def project_word(dga: DGA, word: Word, coeff) -> Optional[Tuple[Word, Coeff]]:
    """Project a free-algebra word into the coinvariants."""
    cls = rotation_class(dga, word)
    if cls is None:
        return None
    canonical, sign = cls
    return canonical, coeff * sign


def apply_differential(dga: DGA, elem: AlgebraElement) -> AlgebraElement:
    """The derivation extension, one raw word at a time: each Leibniz term
    is built whole and normalized, which checks every junction of an
    associative word for composability."""
    acc: Dict[Word, Coeff] = {}
    for word, coeff in elem.terms.items():
        sign = 1
        for i, letter in enumerate(word):
            for dword, dcoeff in dga.d_of_generator(letter).terms.items():
                nw, nc = dga.normalize_word(word[:i] + dword + word[i + 1:], coeff * dcoeff * sign)
                if nc:
                    acc[nw] = acc[nw] + nc if nw in acc else nc
            if dga.generators[letter].parity:
                sign = -sign
    return AlgebraElement(dga.ring, acc)


def cyclic_differential(dga: DGA, word: Word) -> Dict[Word, Coeff]:
    """Differential of a class from raw words: ``apply_differential``, then
    every nonconstant term projected to its class."""
    acc: Dict[Word, Coeff] = {}
    for w, c in apply_differential(dga, AlgebraElement(dga.ring, {word: 1})).terms.items():
        projected = project_word(dga, w, c) if w else None
        if projected is not None:
            key, val = projected
            acc[key] = acc[key] + val if key in acc else val
    return {k: v for k, v in acc.items() if v}


def cyclic_boundaries(dga: DGA, basis: Dict[int, Tuple[Word, ...]]) -> Dict[int, ExactMatrix]:
    """The nonzero boundaries d_k of the cyclic complex on ``basis``, built
    dense from ``cyclic_differential``."""
    out = {}
    for k in sorted(basis):
        if k - 1 not in basis or not basis[k]:
            continue
        index = {w: i for i, w in enumerate(basis[k - 1])}
        rows = [[zero(dga.ring)] * len(basis[k]) for _ in basis[k - 1]]
        for j, word in enumerate(basis[k]):
            for w, c in cyclic_differential(dga, word).items():
                rows[index[w]][j] += c
        if any(x for row in rows for x in row):
            out[k] = ExactMatrix(dga.ring, rows)
    return out


def cyclic_basis(dga: DGA, lo: int, hi: int, link: Optional[int] = None) -> Dict[int, Tuple[Word, ...]]:
    """Canonical words of the nonzero classes, per degree in [lo, hi]."""
    if any(g.degree <= 0 for g in dga.generators.values()):
        raise InfiniteBasis("cyclic bases need strictly positive generator degrees")
    out: Dict[int, Tuple[Word, ...]] = {}
    for k in range(lo, hi + 1):
        reps = set()
        if k >= 1:
            for word in word_basis(dga, k):
                if not word:
                    continue
                if link is not None and dga.link_of_word(word) != link:
                    continue
                cls = rotation_class(dga, word)
                if cls is None:
                    continue
                reps.add(cls[0])
        out[k] = tuple(sorted(reps))
    return out


# reference homology path ------------------------------------------------------


def dense_rank_q(rows) -> int:
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    row = 0
    for col in range(nc):
        pivot = next((r for r in range(row, nr) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nr):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def reference_homology(cx: ChainComplex, lo: int, hi: int) -> Dict[int, HomologySummary]:
    """Per-degree homology of a complex of free modules.

    Over Q the answer is a rank; over Q[U] the kernel is computed from the
    Smith form of the outgoing boundary and the incoming image is presented
    inside it, so the summary also lists torsion invariant factors.
    """
    out: Dict[int, HomologySummary] = {}
    for k in range(lo, hi + 1):
        n = cx.dim(k)
        if n == 0:
            out[k] = HomologySummary(0, ())
            continue
        d_out = boundary_matrix(cx, k)
        d_in = boundary_matrix(cx, k + 1)
        if cx.ring == RING_Q:
            rank_out = dense_rank_q(d_out.rows) if d_out.nrows else 0
            rank_in = dense_rank_q(d_in.rows) if d_in.ncols and d_in.nrows else 0
            out[k] = HomologySummary(n - rank_out - rank_in, ())
            continue

        if d_out.nrows == 0:
            kernel_dim = n
            kernel_coords = ExactMatrix.identity(cx.ring, n)
        else:
            snf = smith_normal_form(d_out)
            r = len(snf.factors)
            kernel_dim = n - r
            kernel_coords = snf.right_inverse
        if kernel_dim == 0:
            out[k] = HomologySummary(0, ())
            continue
        if d_in.ncols == 0 or d_in.nrows == 0:
            out[k] = HomologySummary(kernel_dim, ())
            continue
        coords = kernel_coords @ d_in
        r = n - kernel_dim
        for i in range(r):
            for j in range(d_in.ncols):
                if coords.rows[i][j]:
                    raise ValueError("image does not land in the kernel; d^2 != 0?")
        pres = ExactMatrix(cx.ring, [coords.rows[i] for i in range(r, n)])
        psnf = smith_normal_form(pres)
        torsion = tuple(f for f in psnf.factors if f.degree > 0)
        out[k] = HomologySummary(kernel_dim - len(psnf.factors), torsion)
    return out


# matrix operations used only by the tests ----------------------------------


def det(m: ExactMatrix):
    """Determinant by division-free cofactor expansion (square matrices)."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple):
        if row == n:
            return one(m.ring)
        acc = zero(m.ring)
        for pos, j in enumerate(cols):
            entry = m.rows[row][j]
            if not entry:
                continue
            term = entry * minor(row + 1, cols[:pos] + cols[pos + 1:])
            acc = acc + term if pos % 2 == 0 else acc - term
        return acc

    return minor(0, tuple(range(n)))


def _rank_qu(rows) -> int:
    # Fraction-free elimination: cross-multiply rows; content is never
    # divided out, so entries grow with every elimination step.
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    rank = 0
    row = 0
    for col in range(nc):
        pivot = next((r for r in range(row, nr) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, nr):
            if m[r][col].is_zero():
                continue
            f = m[r][col]
            m[r] = [p * a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def rank(m: ExactMatrix) -> int:
    """Rank over the fraction field (Q, or Q(U) via fraction-free elimination)."""
    return _rank_q(m.entries) if m.ring == RING_Q else _rank_qu(m.rows)


def dense_matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The product a @ b, one dense dot product per cell."""
    assert a.ring == b.ring and a.ncols == b.nrows
    return ExactMatrix(a.ring, [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)),
                                     zero(a.ring)) for j in range(b.ncols)]
                                for i in range(a.nrows)])


def evaluate(m: ExactMatrix, s) -> ExactMatrix:
    """Substitute U := s, landing in a Q matrix."""
    if m.ring == RING_Q:
        return m
    return ExactMatrix(RING_Q, [[e.evaluate(s) for e in row] for row in m.rows])


def boundary_matrix(cx: ChainComplex, k: int) -> ExactMatrix:
    """The stored boundary d_k, or the zero matrix of its shape."""
    if k in cx.boundary:
        return cx.boundary[k]
    z = zero(cx.ring)
    return ExactMatrix(cx.ring, [[z] * cx.dim(k) for _ in range(cx.dim(k - 1))])


# reference Smith form ----------------------------------------------------------


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd in Q[U] by the Euclidean algorithm."""
    a, b = _as_poly(a), _as_poly(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _euclid(ring: str):
    """The Euclidean rule of ``ring`` as functions (size, divmod, unit).

    Over Q every nonzero entry is a unit of size 0 and divides exactly.  Over
    Q[U] the size is the degree, division is long division, and the unit
    part of an entry is its leading coefficient, kept as a constant UPoly so
    that scaling by it stays polynomial arithmetic.  ``unit(x)`` returns the
    unit part of a nonzero x and its inverse.
    """
    if ring == RING_Q:
        return (lambda x: 0), (lambda a, b: (a / b, Fraction(0))), (lambda x: (x, 1 / x))

    def unit(p: UPoly):
        lead = p.coeffs[-1]
        return UPoly.const(lead), UPoly.const(1 / lead)

    return (lambda p: p.degree), UPoly.divmod, unit


def reference_smith_normal_form(m: ExactMatrix) -> SmithResult:
    """Smith normal form over Q or Q[U] with exact transform certificates.

    Returns unimodular ``left``/``right`` (with tracked inverses) such that
    ``left @ m @ right`` is diagonal with the divisibility chain
    d_1 | d_2 | ... ; the chain is unit-normalized.
    """
    ring = m.ring
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    left = [list(r) for r in ExactMatrix.identity(ring, nr).rows]
    linv = [list(r) for r in ExactMatrix.identity(ring, nr).rows]
    right = [list(r) for r in ExactMatrix.identity(ring, nc).rows]
    rinv = [list(r) for r in ExactMatrix.identity(ring, nc).rows]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        linv_col_swap(i, j)

    def linv_col_swap(i, j):
        for r in range(nr):
            linv[r][i], linv[r][j] = linv[r][j], linv[r][i]

    def swap_cols(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            right[r][i], right[r][j] = right[r][j], right[r][i]
        rinv[i], rinv[j] = rinv[j], rinv[i]

    def add_row(dst, src, f):
        # row_dst += f * row_src ; inverse op on linv columns.
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]
        for r in range(nr):
            linv[r][src] = linv[r][src] - f * linv[r][dst]

    def add_col(dst, src, f):
        for r in range(nr):
            a[r][dst] = a[r][dst] + f * a[r][src]
        for r in range(nc):
            right[r][dst] = right[r][dst] + f * right[r][src]
        rinv[src] = [x - f * y for x, y in zip(rinv[src], rinv[dst])]

    def scale_row(i, u, inv):
        # row_i *= inv for a unit u = 1/inv.
        a[i] = [x * inv for x in a[i]]
        left[i] = [x * inv for x in left[i]]
        for r in range(nr):
            linv[r][i] = linv[r][i] * u

    size, divmod_, unit = _euclid(ring)
    s = 0
    limit = min(nr, nc)
    while s < limit:
        # Find a pivot of minimal Euclidean size in the trailing block.
        pivot = None
        best = None
        for i in range(s, nr):
            for j in range(s, nc):
                if a[i][j]:
                    sz = size(a[i][j])
                    if best is None or sz < best:
                        best, pivot = sz, (i, j)
        if pivot is None:
            break
        swap_rows(s, pivot[0])
        swap_cols(s, pivot[1])

        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, nr):
                if not a[i][s]:
                    continue
                q, r = divmod_(a[i][s], a[s][s])
                add_row(i, s, -q)
                if a[i][s]:
                    swap_rows(s, i)
                    dirty = True
            for j in range(s + 1, nc):
                if not a[s][j]:
                    continue
                q, r = divmod_(a[s][j], a[s][s])
                add_col(j, s, -q)
                if a[s][j]:
                    swap_cols(s, j)
                    dirty = True
        # Enforce divisibility into the trailing block.
        fixed = False
        for i in range(s + 1, nr):
            for j in range(s + 1, nc):
                if not a[i][j]:
                    continue
                _, r = divmod_(a[i][j], a[s][s])
                if r:
                    add_row(s, i, one(ring))
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        s += 1

    # Unit-normalize the diagonal.
    factors = []
    for i in range(limit):
        if not a[i][i]:
            continue
        u, inv = unit(a[i][i])
        if u != 1:
            scale_row(i, u, inv)
        factors.append(a[i][i])

    diag = ExactMatrix(ring, a)
    return SmithResult(
        factors=tuple(factors),
        diagonal=diag,
        left=ExactMatrix(ring, left),
        right=ExactMatrix(ring, right),
        left_inverse=ExactMatrix(ring, linv),
        right_inverse=ExactMatrix(ring, rinv),
    )


# names only the tests call ------------------------------------------------------


def multiply(dga: DGA, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    out: Dict[Word, Coeff] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            nw, nc = dga.normalize_word(wa + wb, ca * cb)
            if nc:
                out[nw] = out[nw] + nc if nw in out else nc
    return AlgebraElement(dga.ring, out)


def scaled(elem: AlgebraElement, factor) -> AlgebraElement:
    factor = coerce(elem.ring, factor)
    return AlgebraElement(elem.ring, {w: c * factor for w, c in elem.terms.items()})


def exterior_orbit_multiset(forest: DecoratedForest) -> tuple:
    labels = [e.orbit.key() for e in forest.input_edges() + forest.output_edges()]
    return tuple(sorted(labels))


def path_index(path: PathSpec, subdivisions: int = 256):
    """Index of a path by the method its family admits.

    Rotation and local-model blocks go through the crossing count (equal to the
    closed form); shear blocks get the half-integer index with the loop
    shift.
    """
    if path.family == "shear":
        if path.blocks is None:
            raise ValueError("shear paths need a block count")
        return rs_shear(path.blocks, path.loop_k)
    return cz_crossing(path, subdivisions=subdivisions)


def triangle_third_bounds(
    a: Dict[int, int], b: Dict[int, int], degrees
) -> Dict[int, Tuple[int, int]]:
    """Exactness bounds on the third term of a triangle A -> B -> C -> A[-1].

    dim C_k = rk(B_k -> C_k) + rk(C_k -> A_{k-1}) gives
    max(B_k - A_k, 0) + max(A_{k-1} - B_{k-1}, 0) <= C_k <= B_k + A_{k-1}.
    """
    out = {}
    for k in degrees:
        ak, bk = a.get(k, 0), b.get(k, 0)
        ak1, bk1 = a.get(k - 1, 0), b.get(k - 1, 0)
        lo = max(bk - ak, 0) + max(ak1 - bk1, 0)
        hi = bk + ak1
        out[k] = (lo, hi)
    return out


def check_triangle_ranks(
    a: Dict[int, int], b: Dict[int, int], c: Dict[int, int], degrees
) -> List[str]:
    """Report degrees where the supplied third-term ranks violate exactness."""
    bounds = triangle_third_bounds(a, b, degrees)
    problems = []
    for k in degrees:
        lo, hi = bounds[k]
        ck = c.get(k, 0)
        if not (lo <= ck <= hi):
            problems.append(f"degree {k}: rank {ck} outside [{lo}, {hi}]")
    return problems


def index_consistency(n: int, table: GeneratorTable) -> List[str]:
    """Cross-check orbit indices against the shear-block index calculator."""
    problems = []
    base = rs_shear(n - 1, 0)
    for row in table:
        if row.family == FAMILY_ORBIT_A:
            expected = rs_shear(n - 1, row.cover) - base
        elif row.family == FAMILY_ORBIT_B:
            expected = rs_shear(n - 1, row.cover) - base + (n - 1)
        else:
            continue
        if expected != row.cz:
            problems.append(f"{row.generator.name}: index {row.cz} != {expected}")
    return problems


# mpmath references for the exact enclosures ---------------------------------------


def reference_exp_scaled_compare(lhs, coeff, energy, rhs, strict: bool = True) -> bool:
    """Decide lhs > coeff * e^energy * rhs (or >= when strict=False), carefully.

    Zero energy is decided exactly.  Otherwise the right-hand side is
    enclosed in a shrinking interval; if the difference cannot be resolved
    outside the 1e-12 band the comparison raises UnresolvedComparison.
    """
    if rhs == 0:
        return lhs > 0 if strict else lhs >= 0
    if energy == 0:
        product = Fraction(coeff) * Fraction(rhs) if not isinstance(coeff, float) and not isinstance(rhs, float) else coeff * rhs
        return lhs > product if strict else lhs >= product
    tol = float(EQUALITY_TOLERANCE)
    for prec in (80, 160, 320):
        iv = mpmath.iv
        iv.prec = prec
        e = iv.exp(_to_iv(energy))
        rhs_iv = _to_iv(coeff) * e * _to_iv(rhs)
        diff = _to_iv(lhs) - rhs_iv
        lo, hi = mpmath.mpf(diff.a), mpmath.mpf(diff.b)
        if hi < -tol:
            return False
        if lo > tol:
            return True
        if -tol < lo and hi < tol:
            raise UnresolvedComparison(
                f"difference {float(lo)}..{float(hi)} is within 1e-12 of equality"
            )
    raise UnresolvedComparison(
        f"could not separate lhs from coeff*e^E*rhs: enclosure {float(lo)}..{float(hi)}"
    )


def _to_iv(x):
    if isinstance(x, Fraction):
        return mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)
    return mpmath.iv.mpf(x)


def reference_interior_orbit_bound(a: float, rho: float) -> int:
    """Strict lower bound floor(a*rho/pi) for indices of orbits away from the
    model neighborhood.

    Floating inputs within 1e-9 (relative) of making a*rho/pi an integer are
    taken to mean that integer exactly, so e.g. a = 10, rho = pi gives 10.
    """
    if a <= 0 or rho <= 0:
        raise ValueError("a and rho must be positive")
    with mpmath.workdps(60):
        x = mpmath.mpf(a) * mpmath.mpf(rho) / mpmath.pi
        nearest = mpmath.nint(x)
        if abs(x - nearest) <= 1e-9 * max(1, abs(x)):
            return int(nearest)
        return int(mpmath.floor(x))


def reference_threshold_parameter(N: int, rho: float) -> float:
    """Smallest a certifying that interior orbits clear the window [0, N)."""
    with mpmath.workdps(60):
        return float(mpmath.mpf(N) * mpmath.pi / mpmath.mpf(rho))
