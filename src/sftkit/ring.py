"""Exact coefficient arithmetic: Q, the polynomial ring Q[U], and matrices.

Everything here is exact.  Rationals are ``fractions.Fraction`` (arbitrary
precision), polynomials store a tuple of rational coefficients indexed by the
exponent of U, and matrices carry a ring tag ("Q" or "QU") and store only
their nonzero entries.  ``coerce`` is the one rule for what a coefficient of
each ring is; matrices built from dense rows and algebra elements both use
it.  No value is mutated after construction; all
operations return new values.  The rank and Smith kernels clear denominators
and eliminate fraction-free over Z (rank) and Z[U] (Smith form, both rings).
"""

from __future__ import annotations

import re
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
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
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


def parse_upoly(text: str) -> UPoly:
    """Parse strings like '2*U^2 - U + 1/2' (also bare rationals and decimals)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    s = re.sub(r"(?<![eE])-", "+-", s)
    if s.startswith("+"):
        s = s[1:]
    acc = UPoly()
    for term in re.split(r"(?<![eE])\+", s):
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


class SmithResult:
    """Diagonalization L*M*R = D with unimodular L, R of ``source`` (the M).

    ``factors`` lists the nonzero diagonal entries d_1 | d_2 | ..., unit
    normalized (all 1 over Q, monic over Q[U]).  ``left_inverse`` and
    ``right_inverse`` are built on first read by one more elimination of
    ``source`` that tracks them, and then kept.
    """

    __slots__ = ("factors", "diagonal", "left", "right", "_source", "_inverses")

    def __init__(self, factors: tuple, diagonal: "ExactMatrix", left: "ExactMatrix",
                 right: "ExactMatrix", source: "ExactMatrix"):
        for name, value in (("factors", factors), ("diagonal", diagonal), ("left", left),
                            ("right", right), ("_source", source), ("_inverses", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("SmithResult is immutable")

    def __reduce__(self):
        return SmithResult, (self.factors, self.diagonal, self.left, self.right, self._source)

    def _inverse_pair(self) -> tuple:
        if self._inverses is None:
            object.__setattr__(self, "_inverses", _smith_form(self._source, inverses=True)[4:])
        return self._inverses

    @property
    def left_inverse(self) -> "ExactMatrix":
        return self._inverse_pair()[0]

    @property
    def right_inverse(self) -> "ExactMatrix":
        return self._inverse_pair()[1]

    def verify(self, m: "ExactMatrix") -> bool:
        return (self.left @ m) @ self.right == self.diagonal


class ExactMatrix:
    """Immutable rectangular matrix over Q or Q[U].

    ``entries`` holds the nonzero entries of each row as a {col: coeff}
    dict; ``rows`` is the dense view, built on first access.
    """

    __slots__ = ("ring", "entries", "nrows", "ncols", "_rows")

    def __init__(self, ring: str, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("matrix rows have unequal lengths")
        else:
            width = 0
        coerced = [[coerce(ring, x) for x in r] for r in rows]
        self._fill(ring, [{j: x for j, x in enumerate(r) if x} for r in coerced], width)

    @classmethod
    def _from_entries(cls, ring: str, entries: Sequence[dict], ncols: int) -> "ExactMatrix":
        """The matrix whose rows have the nonzero entries ``entries``, taken
        as they are: each value must already be a nonzero element of ``ring``."""
        m = object.__new__(cls)
        m._fill(ring, entries, ncols)
        return m

    def _fill(self, ring, entries, ncols):
        for name, value in (("ring", ring), ("entries", tuple(entries)),
                            ("nrows", len(entries)), ("ncols", ncols), ("_rows", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            z = zero(self.ring)
            object.__setattr__(self, "_rows", tuple(
                tuple(line.get(j, z) for j in range(self.ncols)) for line in self.entries))
        return self._rows

    def __reduce__(self):
        # rebuild through __init__, as UPoly does
        return ExactMatrix, (self.ring, self.rows)

    @staticmethod
    def identity(ring: str, n: int) -> "ExactMatrix":
        return ExactMatrix._from_entries(ring, [{i: one(ring)} for i in range(n)], n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.ring, self.ncols, self.entries) == (other.ring, other.ncols, other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ring != other.ring or self.ncols != other.nrows:
            raise ValueError("incompatible matrices")
        return ExactMatrix._from_entries(self.ring, _sparse_product(self.entries, other.entries),
                                         other.ncols)

    def __str__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]"

    __repr__ = __str__


def _sparse_product(left_rows: Sequence[dict], right_rows: Sequence[dict]) -> list:
    """The product of two matrices given by the nonzero entries of their rows
    ({col: coeff} dicts, as in ``ExactMatrix.entries``), in the same form:
    each row of the product is built from the rows of ``right_rows`` that the
    entries of one row of ``left_rows`` select."""
    out = []
    for line in left_rows:
        acc = {}
        for k, x in line.items():
            for j, y in right_rows[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _primitive(vec: dict) -> dict:
    """Divide a nonzero integer vector {col: int} by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {j: v // g for j, v in vec.items()}


def _rank_q(rows) -> int:
    """Rank over Q by sparse, fraction-free elimination over Z (Bareiss 1968).

    ``rows`` are {col: Fraction} dicts of nonzero entries, as in
    ``ExactMatrix.entries``.  Each row is cleared of denominators into a
    primitive {col: int} dict and reduced against the pivot rows met so far,
    keyed by leading column: with g the gcd of the two leading entries p
    (pivot) and c (row), the row becomes (p/g)*row - (c/g)*pivot.  A row that
    survives is divided by its content and stored as the pivot of its new
    leading column.
    """
    pivots: dict = {}
    for row in rows:
        if not row:
            continue
        scale = lcm(*(x.denominator for x in row.values()))
        vec = _primitive({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
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


# The Smith kernel works on integer polynomials: a list of ints, lowest degree
# first, with no trailing zeros (the zero polynomial is []).  A line of a
# matrix (a row, or a column) is a dict {index: poly} of its nonzero entries.


def _padd(p, a: int, q, b: int, sh: int) -> list:
    """a*p + b*U^sh*q."""
    out = [a * c for c in p]
    if len(out) < len(q) + sh:
        out.extend([0] * (len(q) + sh - len(out)))
    for k, c in enumerate(q, sh):
        out[k] += b * c
    while out and not out[-1]:
        out.pop()
    return out


def _combine(x: dict, a: int, y: dict, b: int, sh: int) -> dict:
    """The line a*x + b*U^sh*y."""
    out = {}
    for j, p in x.items():
        q = y.get(j)
        r = _padd(p, a, q, b, sh) if q else [a * c for c in p]
        if r:
            out[j] = r
    for j, q in y.items():
        if j not in x:
            out[j] = [0] * sh + [b * c for c in q]
    return out


def _content(line: dict) -> int:
    return gcd(*(c for p in line.values() for c in p))


def _divided(line: dict, g: int) -> dict:
    return line if g == 1 else {j: [c // g for c in p] for j, p in line.items()}


def _reduced(line: dict, den: int) -> tuple:
    """The rational line line/den in lowest terms, as (line, den)."""
    g = gcd(_content(line), den)
    return _divided(line, g), den // g


def _divides(p: list, x: list) -> bool:
    """Whether p divides x over Q[U], by pseudo-division on primitive parts."""
    if len(p) == 1:
        return True
    while len(x) >= len(p):
        g = gcd(p[-1], x[-1])
        x = _padd(x, p[-1] // g, p, -(x[-1] // g), len(x) - len(p))
        h = gcd(*x)
        if h > 1:
            x = [c // h for c in x]
    return not x


class _Transform:
    """A unimodular transform built up one line operation at a time.

    ``fwd[i]`` is line i of the transform with integer entries (a row of L,
    a column of R).  With ``inverse``, ``inv[i]`` is the matching line of its
    inverse (a column of L^-1, a row of R^-1) as (line, positive
    denominator); otherwise ``inv`` is None.  Starts as the identity of
    size n.  Tracking the inverse changes no line of ``fwd``.
    """

    def __init__(self, n: int, inverse: bool):
        self.fwd = [{i: [1]} for i in range(n)]
        self.inv = [({i: [1]}, 1) for i in range(n)] if inverse else None

    def apply(self, dst: int, src: int, a: int, b: int, sh: int, g: int) -> int:
        """fwd[dst] := (a*fwd[dst] + b*U^sh*fwd[src]) / h and, if tracked,
        the inverse update, for h the gcd of g and the new line's content;
        returns h."""
        line = _combine(self.fwd[dst], a, self.fwd[src], b, sh)
        h = gcd(g, _content(line))
        self.fwd[dst] = _divided(line, h)
        if self.inv is None:
            return h
        # E has row dst = (a*e_dst + b*U^sh*e_src)/h, so E^-1 has row
        # dst = (h*e_dst - b*U^sh*e_src)/a: inverse line dst scales by h/a
        # and inverse line src loses (b*U^sh/a) times the old line dst.
        (nd, dd), (ns, ds) = self.inv[dst], self.inv[src]
        den = lcm(ds, abs(a) * dd)
        self.inv[src] = _reduced(_combine(ns, den // ds, nd, -b * (den // (a * dd)), sh), den)
        f = h if a > 0 else -h
        self.inv[dst] = _reduced({j: [c * f for c in p] for j, p in nd.items()}, dd * abs(a))
        return h


def _smith(m: ExactMatrix, transforms: bool, inverses: bool = False):
    """Fraction-free Smith elimination of ``m`` over Z[U], for both rings.

    Each row is cleared of denominators (a unit scaling over Q or Q[U]).
    A pivot of least degree, on the shortest row, is chosen among the
    unfinished rows; every other entry of its column and row is reduced by
    pseudo-division steps line_i := (a*line_i - b*U^sh*line_s)/g, where a, b
    are the cofactors of the two leading coefficients and g is the content
    of the new line of A together with its line of the transform (so a/g
    is a unit of Q[U]).  A remainder that survives becomes the pivot, as in
    the Euclidean algorithm, and a pivot that does not divide the rest of
    the block takes the offending row added to its own.  Over Q every
    entry is a constant and one step clears it.  Without transforms, a
    pivot whose column is clear drops the entries of its row it divides.

    Returns the reduced rows, the pivots (row, col) in divisibility order,
    and the left and right transforms (None unless ``transforms``), which
    track their inverses if ``inverses``.
    """
    a, left = [], _Transform(m.nrows, inverses) if transforms else None
    for i, row in enumerate(m.entries):
        polys = [(j, (x,) if m.ring == RING_Q else x.coeffs) for j, x in sorted(row.items())]
        scale = lcm(*(c.denominator for _, p in polys for c in p))
        line = {j: [c.numerator * (scale // c.denominator) for c in p] for j, p in polys}
        if transforms:
            left.fwd[i] = {i: [scale]}
            if inverses:
                left.inv[i] = ({i: [1]}, scale)
        else:
            line = _divided(line, _content(line) or 1)
        a.append(line)
    right = _Transform(m.ncols, inverses) if transforms else None

    def row_op(dst, src, x, y, sh):
        line = _combine(a[dst], x, a[src], y, sh)
        g = _content(line)
        g = left.apply(dst, src, x, y, sh, g) if transforms else g or 1
        a[dst] = _divided(line, g)

    def col_op(dst, src, x, y, sh):
        new = {i: _padd(a[i].get(dst, ()), x, a[i].get(src, ()), y, sh)
               for i in live if dst in a[i] or src in a[i]}
        g = gcd(*(c for p in new.values() for c in p))
        g = right.apply(dst, src, x, y, sh, g) if transforms else g or 1
        for i, p in new.items():
            if p:
                a[i][dst] = [c // g for c in p] if g > 1 else p
            else:
                del a[i][dst]

    def reduce(op, dst, src, p, q):
        # one pseudo-division step of entry p (line dst) by pivot q (line src)
        g = gcd(p[-1], q[-1])
        x, y = q[-1] // g, -(p[-1] // g)
        if x < 0:
            x, y = -x, -y
        op(dst, src, x, y, len(p) - len(q))

    live = list(range(m.nrows))  # rows without a finished pivot
    pivots = []
    while True:
        best = None
        for i in live:
            for j, p in a[i].items():
                key = (len(p), len(a[i]))
                if best is None or key < best[0]:
                    best = key, i, j
        if best is None:
            break
        _, r, c = best
        while True:
            dirty = False
            for i in live:
                while i != r and c in a[i] and len(a[i][c]) >= len(a[r][c]):
                    reduce(row_op, i, r, a[i][c], a[r][c])
                if i != r and c in a[i]:
                    r, dirty = i, True
            if dirty:
                continue
            # column c is now zero off the pivot, so a column operation that
            # subtracts a multiple of it changes row r alone: without
            # transforms, entries of row r that the pivot divides just go
            p = a[r][c]
            if not transforms and all(_divides(p, x) for x in a[r].values()):
                a[r] = {c: p}
            for j in list(a[r]):
                while j != c and j in a[r] and len(a[r][j]) >= len(a[r][c]):
                    reduce(col_op, j, c, a[r][j], a[r][c])
                if j != c and j in a[r]:
                    c, dirty = j, True
            if dirty:
                continue
            # the pivot must divide the rest of the block; otherwise add an
            # offending row to its row, whose next pass lowers its degree
            bad = next((i for i in live if i != r and len(p) > 1
                        and not all(_divides(p, x) for x in a[i].values())), None)
            if bad is None:
                break
            row_op(r, bad, 1, 1, 0)
        live.remove(r)
        pivots.append((r, c))
    return a, pivots, left, right


def _monic(ring: str, p: list):
    return Fraction(1) if ring == RING_Q else UPoly([Fraction(c, p[-1]) for c in p])


def _rank_and_torsion(m: ExactMatrix) -> tuple:
    """The rank of ``m`` and its invariant factors that are not units, unit
    normalized as in ``smith_normal_form``, computed without transforms:
    over Q by ``_rank_q``, over Q[U] by one Smith elimination whose pivots
    of positive degree are the torsion."""
    if m.ring == RING_Q:
        return _rank_q(m.entries), ()
    a, pivots, _, _ = _smith(m, transforms=False)
    return len(pivots), tuple(_monic(m.ring, a[r][c]) for r, c in pivots if len(a[r][c]) > 1)


def _smith_form(m: ExactMatrix, inverses: bool) -> tuple:
    """The factors, D, L and R of ``smith_normal_form(m)``, then L^-1 and
    R^-1 if ``inverses``: tracking them leaves the elimination unchanged."""
    ring = m.ring
    a, pivots, left, right = _smith(m, transforms=True, inverses=inverses)
    # the pivots' rows and columns come first, in pivot order; the pivot rows
    # of L are divided by the pivot's leading coefficient to make D monic
    rows = [r for r, _ in pivots] + sorted(set(range(m.nrows)) - {r for r, _ in pivots})
    cols = [c for _, c in pivots] + sorted(set(range(m.ncols)) - {c for _, c in pivots})
    lead = {r: a[r][c][-1] for r, c in pivots}

    def entries(line, num=1, den=1):
        if ring == RING_Q:
            return {j: Fraction(p[0] * num, den) for j, p in line.items()}
        return {j: UPoly([Fraction(c * num, den) for c in p]) for j, p in line.items()}

    def square(lines, n, transpose=False):
        if transpose:
            cols, lines = lines, [{} for _ in range(n)]
            for s, col in enumerate(cols):
                for j, x in col.items():
                    lines[j][s] = x
        return ExactMatrix._from_entries(ring, lines, n)

    factors = tuple(_monic(ring, a[r][c]) for r, c in pivots)
    diag = [{s: factors[s]} if s < len(factors) else {} for s in range(m.nrows)]
    nr, nc = m.nrows, m.ncols
    out = (factors, ExactMatrix._from_entries(ring, diag, nc),
           square([entries(left.fwd[i], 1, lead.get(i, 1)) for i in rows], nr),
           square([entries(right.fwd[j]) for j in cols], nc, transpose=True))
    if inverses:
        out += (square([entries(left.inv[i][0], lead.get(i, 1), left.inv[i][1])
                        for i in rows], nr, transpose=True),
                square([entries(right.inv[j][0], 1, right.inv[j][1]) for j in cols], nc))
    return out


def smith_normal_form(m: ExactMatrix) -> SmithResult:
    """Smith normal form over Q or Q[U] with exact transform certificates.

    Returns unimodular ``left``/``right`` such that ``left @ m @ right`` is
    diagonal with the divisibility chain d_1 | d_2 | ... ; the chain is
    unit-normalized.  Their inverses are built on first read.
    """
    return SmithResult(*_smith_form(m, inverses=False), m)
