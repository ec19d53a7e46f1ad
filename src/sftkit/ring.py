"""Exact coefficient arithmetic: Q, the polynomial ring Q[U], and matrices.

Everything here is exact.  Rationals are ``fractions.Fraction`` (arbitrary
precision), polynomials store a tuple of rational coefficients indexed by the
exponent of U, and matrices carry a ring tag ("Q" or "QU") so that the normal
form routines know which division rule applies.  ``coerce`` is the one rule
for what a coefficient of each ring is; matrices and algebra elements both
use it.  No value is mutated after construction; all operations return new
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

RING_Q = "Q"
RING_QU = "QU"


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class UPoly:
    """Univariate polynomial in U with rational coefficients.

    ``coeffs[k]`` is the coefficient of U^k; the tuple carries no trailing
    zeros, so the zero polynomial is the empty tuple and ``degree`` of zero
    is -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UPoly is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default slot restore would setattr
        return UPoly, (self.coeffs,)

    @staticmethod
    def const(c) -> "UPoly":
        return UPoly([rat(c)])

    @staticmethod
    def monomial(exponent: int, coeff=1) -> "UPoly":
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        return UPoly([0] * exponent + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UPoly([c / lead for c in self.coeffs])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UPoly", self.coeffs))

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([_at(self, i) + _at(other, i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = UPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "UPoly"):
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / dlead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
        return UPoly(q), UPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def evaluate(self, s) -> Fraction:
        s = rat(s)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                u = "U" if k == 1 else f"U^{k}"
                body = u if abs(c) == 1 else f"{abs(c)}*{u}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


def _as_poly(x):
    if isinstance(x, UPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UPoly.const(x)
    return NotImplemented


def _at(p: UPoly, i: int) -> Fraction:
    return p.coeffs[i] if i < len(p.coeffs) else Fraction(0)


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd in Q[U] by the Euclidean algorithm."""
    a, b = _as_poly(a), _as_poly(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def parse_upoly(text: str) -> UPoly:
    """Parse strings like '2*U^2 - U + 1/2' (also bare rationals)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    acc = UPoly()
    for term in s.split("+"):
        if not term:
            raise ValueError(f"cannot parse polynomial {text!r}")
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "U" in term:
            head, _, tail = term.partition("U")
            coeff = rat(head.rstrip("*")) if head.rstrip("*") else Fraction(1)
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail == "":
                exp = 1
            else:
                raise ValueError(f"cannot parse polynomial {text!r}")
        else:
            coeff, exp = rat(term), 0
        if neg:
            coeff = -coeff
        acc = acc + UPoly.monomial(exp, coeff)
    return acc


def coerce(ring: str, x):
    """The coefficient ``x`` as an element of ``ring``: a Fraction over Q
    ("Q"), a UPoly over Q[U] ("QU").  Both accept ints, rational strings and
    Fractions; over Q a UPoly only when it is constant.  Floats raise
    TypeError and unknown ring tags ValueError."""
    if ring == RING_Q:
        if isinstance(x, UPoly):
            if x.degree > 0:
                raise ValueError(f"nonconstant polynomial {x} over Q")
            return x.coeffs[0] if x.coeffs else Fraction(0)
        return rat(x)
    if ring == RING_QU:
        return x if isinstance(x, UPoly) else UPoly.const(x)
    raise ValueError(f"unknown ring tag {ring!r}")


def zero(ring: str):
    return coerce(ring, 0)


def one(ring: str):
    return coerce(ring, 1)


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


@dataclass(frozen=True)
class SmithResult:
    """Diagonalization L*M*R = D with unimodular L, R.

    ``factors`` lists the nonzero diagonal entries d_1 | d_2 | ..., unit
    normalized (all 1 over Q, monic over Q[U]).
    """

    factors: tuple
    diagonal: "ExactMatrix"
    left: "ExactMatrix"
    right: "ExactMatrix"
    left_inverse: "ExactMatrix"
    right_inverse: "ExactMatrix"

    def verify(self, m: "ExactMatrix") -> bool:
        return (self.left @ m) @ self.right == self.diagonal


class ExactMatrix:
    """Immutable rectangular matrix over Q or Q[U]."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring: str, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("matrix rows have unequal lengths")
        else:
            width = 0
        coerced = tuple(tuple(coerce(ring, x) for x in r) for r in rows)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def identity(ring: str, n: int) -> "ExactMatrix":
        e, z = one(ring), zero(ring)
        return ExactMatrix(ring, [[e if i == j else z for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring or self.ncols != other.nrows:
            raise ValueError("incompatible matrices")
        z = zero(self.ring)
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(self.ring, out)

    def __str__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]"

    __repr__ = __str__


def _primitive(vec: dict) -> dict:
    """Divide a nonzero integer vector {col: int} by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {j: v // g for j, v in vec.items()}


def _rank_q(rows) -> int:
    """Rank over Q by sparse, fraction-free elimination over Z (Bareiss 1968).

    Each row is cleared of denominators into a primitive {col: int} dict and
    reduced against the pivot rows met so far, keyed by leading column: with
    g the gcd of the two leading entries p (pivot) and c (row), the row
    becomes (p/g)*row - (c/g)*pivot.  A row that survives is divided by its
    content and stored as the pivot of its new leading column.
    """
    pivots: dict = {}
    for row in rows:
        entries = [(j, x) for j, x in enumerate(row) if x]
        if not entries:
            continue
        scale = lcm(*(x.denominator for _, x in entries))
        vec = _primitive({j: x.numerator * (scale // x.denominator) for j, x in entries})
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive(vec)
                break
            g = gcd(pivot[lead], vec[lead])
            a, b = pivot[lead] // g, vec[lead] // g
            vec = {j: a * v for j, v in vec.items()}
            for j, v in pivot.items():
                w = vec.get(j, 0) - b * v
                if w:
                    vec[j] = w
                else:
                    del vec[j]
    return len(pivots)


def smith_normal_form(m: ExactMatrix) -> SmithResult:
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
