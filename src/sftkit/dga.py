"""Free graded dg-algebras over Q or Q[U].

Two flavors are supported.  "commutative" is the free supercommutative
algebra on a set of good generators: words are kept sorted in a canonical
order, transpositions of odd generators contribute Koszul signs, and odd
squares vanish.  "associative" is the free associative algebra over a
semisimple base with one idempotent per component: words are kept verbatim
and adjacent chords must have matching endpoint components.

Elements are finite linear combinations of normalized words with exact
coefficients (Fraction over Q, UPoly over Q[U]).  On top of the algebra:
the derivation extension of a differential, d^2 checking, augmentations,
linearization, evaluation U := s, and homology of the resulting complexes
of free modules, with torsion invariant factors over Q[U].
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .errors import (BidegreeViolation, DSquareNonzero, InfiniteBasis, NonComposable,
                     NotAChainMap, NotSupported, TooLarge)
from .ring import (RING_Q, RING_QU, ExactMatrix, UPoly, _rank_and_torsion, _sparse_product,
                   coerce, one, rat, zero)

Coeff = Union[Fraction, UPoly]
Word = Tuple[str, ...]

MODE_COMMUTATIVE = "commutative"
MODE_ASSOCIATIVE = "associative"


@dataclass(frozen=True)
class Generator:
    """A named Reeb orbit or chord with its gradings.

    ``kind`` is ("orbit",) or ("chord", source_component, target_component).
    Parity is the homological degree mod 2.  Bad generators are rejected at
    algebra construction, so anything inside a DGA is good.
    """

    name: str
    degree: int
    link: Optional[int] = None
    kind: tuple = ("orbit",)
    good: bool = True

    @property
    def parity(self) -> int:
        return self.degree & 1

    @property
    def is_chord(self) -> bool:
        return self.kind[0] == "chord"

    def sort_key(self) -> tuple:
        return (self.degree, self.link if self.link is not None else 0, self.name)


class AlgebraElement:
    """Finite linear combination of normalized words."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: str, terms: Optional[Dict[Word, Coeff]] = None):
        clean = {}
        for word, coeff in (terms or {}).items():
            coeff = coerce(ring, coeff)
            if coeff:
                clean[tuple(word)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return AlgebraElement(self.ring, out)

    def __neg__(self):
        return AlgebraElement(self.ring, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def sorted_terms(self) -> List[Tuple[Word, Coeff]]:
        return sorted(self.terms.items(), key=lambda wc: (len(wc[0]), wc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for word, coeff in self.sorted_terms():
            wtxt = "*".join(word) if word else "1"
            bits.append(f"({coeff})*{wtxt}")
        return " + ".join(bits)

    __repr__ = __str__


class DGA:
    """A free graded dg-algebra with an explicit differential table."""

    def __init__(
        self,
        ring: str,
        mode: str,
        generators: Sequence[Generator],
        differential: Optional[Dict[str, AlgebraElement]] = None,
        components: int = 1,
    ):
        if ring not in (RING_Q, RING_QU):
            raise ValueError(f"unknown ring {ring!r}")
        if mode not in (MODE_COMMUTATIVE, MODE_ASSOCIATIVE):
            raise ValueError(f"unknown mode {mode!r}")
        if components < 1:
            raise ValueError("need at least one base component")
        table: Dict[str, Generator] = {}
        for g in sorted(generators, key=Generator.sort_key):
            if not g.good:
                raise ValueError(f"bad generator {g.name!r} rejected at construction")
            if g.name in table:
                raise ValueError(f"duplicate generator {g.name!r}")
            if g.is_chord:
                src, tgt = g.kind[1], g.kind[2]
                if not (0 <= src < components and 0 <= tgt < components):
                    raise ValueError(f"chord {g.name!r} has components outside the base")
            table[g.name] = g
        self.ring = ring
        self.mode = mode
        self.components = components
        self.generators = table
        # name -> (position in the canonical order, parity): the Koszul sort key
        self._order = {n: (i, g.parity) for i, (n, g) in enumerate(table.items())}
        # chords can fail to compose only in an associative algebra over more
        # than one component; there a chord's endpoints are (source, target),
        # and every other letter has (None, None), which composes with anything
        self._partial = mode == MODE_ASSOCIATIVE and components > 1
        self._ends = {n: g.kind[1:] if g.is_chord and self._partial else (None, None)
                      for n, g in table.items()}
        diff: Dict[str, AlgebraElement] = {}
        for name, elem in (differential or {}).items():
            if name not in table:
                raise ValueError(f"differential on unknown generator {name!r}")
            diff[name] = self.normalize_element(elem)
        self.differential = diff
        # name -> (degree, the (word, coeff) terms of d(name)) for the Leibniz rule
        self._leibniz_table = {n: (g.degree, tuple(diff[n].terms.items()) if n in diff else ())
                               for n, g in table.items()}

    # basic structure -------------------------------------------------------

    def degree_of_word(self, word: Word) -> int:
        return sum(self.generators[g].degree for g in word)

    def link_of_word(self, word: Word) -> Optional[int]:
        links = [self.generators[g].link for g in word]
        if any(l is None for l in links):
            return None
        return sum(links)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self.ring)

    def unit(self) -> AlgebraElement:
        return AlgebraElement(self.ring, {(): one(self.ring)})

    def element(self, terms: Dict[Word, Coeff]) -> AlgebraElement:
        return self.normalize_element(AlgebraElement(self.ring, terms))

    # normalization ---------------------------------------------------------

    def normalize_word(self, word: Iterable[str], coeff=1) -> Tuple[Word, Coeff]:
        """Canonical form of a raw word; a zero result has coefficient 0.

        Commutative mode sorts with Koszul signs and kills odd squares;
        associative mode keeps the order and checks chord composability.
        """
        word = tuple(word)
        coeff = coerce(self.ring, coeff)
        for g in word:
            if g not in self.generators:
                raise KeyError(f"unknown generator {g!r}")
        if self.mode == MODE_ASSOCIATIVE:
            self._check_composable(word)
            return word, coeff

        order = self._order
        letters = tuple(sorted(word, key=order.__getitem__))
        # the sort moves odd letters past each other once per inversion among
        # them; two equal odd letters end up adjacent, and their square is 0
        odd = [order[g][0] for g in word if order[g][1]]
        if len(set(odd)) < len(odd):
            return letters, zero(self.ring)
        flips = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
        return letters, -coeff if flips & 1 else coeff

    def _check_composable(self, word: Word):
        # c_{ij} = e_j c_{ij} e_i : the right unit of the left factor must
        # match the left unit of the right factor.
        for left, right in zip(word, word[1:]):
            source, target = self._ends[left][0], self._ends[right][1]
            if not _composable(source, target):
                raise NonComposable(f"{left!r} (from component {source}) cannot follow "
                                    f"{right!r} (into component {target})")

    def normalize_element(self, elem: AlgebraElement) -> AlgebraElement:
        out: Dict[Word, Coeff] = {}
        for word, coeff in elem.terms.items():
            nw, nc = self.normalize_word(word, coeff)
            if nc:
                out[nw] = out[nw] + nc if nw in out else nc
        return AlgebraElement(self.ring, out)

    # differential ----------------------------------------------------------

    def d_of_generator(self, name: str) -> AlgebraElement:
        return self.differential.get(name, self.zero())

    def _leibniz(self, word: Word) -> Iterator[Tuple[Word, Coeff]]:
        """The terms of d(word) by the Leibniz rule, one per letter of
        ``word`` and term of that letter's differential: the raw word (not
        normalized, equal words not combined) and its coefficient.

        Where chords can fail to compose, each term is checked whole, so
        NonComposable is raised on exactly the terms that do not compose.
        """
        table = self._leibniz_table
        try:
            info = [table[g] for g in word]
        except KeyError as exc:
            raise KeyError(f"unknown generator {exc.args[0]!r}") from None
        odd = 0
        for i, (degree, dterms) in enumerate(info):
            if dterms:
                prefix, suffix = word[:i], word[i + 1:]
                for dword, dcoeff in dterms:
                    term = prefix + dword + suffix
                    if self._partial:
                        self._check_composable(term)
                    yield term, -dcoeff if odd else dcoeff
            odd ^= degree & 1

    def apply_differential(self, elem: AlgebraElement) -> AlgebraElement:
        """Derivation extension: d(xy) = (dx)y + (-1)^|x| x(dy)."""
        acc: Dict[Word, Coeff] = {}
        for word, coeff in elem.terms.items():
            for term, c in self._leibniz(word):
                nw, nc = ((term, coeff * c) if self.mode == MODE_ASSOCIATIVE
                          else self.normalize_word(term, coeff * c))
                if nc:
                    acc[nw] = acc[nw] + nc if nw in acc else nc
        return AlgebraElement(self.ring, acc)

    def check_d_squared(self) -> List[Tuple[str, AlgebraElement]]:
        """Nonzero residues d(d(x)) per generator; empty list means d^2 = 0."""
        residues = []
        for name in self.generators:
            r = self.apply_differential(self.d_of_generator(name))
            if r:
                residues.append((name, r))
        return residues

    def check_bidegree(self) -> List[str]:
        """Terms of the differential violating degree -1 or link-degree 0."""
        problems = []
        linked = all(g.link is not None for g in self.generators.values())
        for name, image in self.differential.items():
            g = self.generators[name]
            for word in image.terms:
                if self.degree_of_word(word) != g.degree - 1:
                    problems.append(
                        f"d({name}) has a term of degree {self.degree_of_word(word)}, "
                        f"wanted {g.degree - 1}"
                    )
                if linked and self.link_of_word(word) != g.link:
                    problems.append(
                        f"d({name}) has a term of linking degree "
                        f"{self.link_of_word(word)}, wanted {g.link}"
                    )
        return problems

    # evaluation -------------------------------------------------------------

    def evaluate_U(self, s) -> "DGA":
        """Substitute U := s throughout; lands in a Q-algebra."""
        if self.ring == RING_Q:
            raise ValueError("algebra already has rational coefficients")
        s = rat(s)
        diff = {
            name: AlgebraElement(
                RING_Q, {w: c.evaluate(s) for w, c in elem.terms.items()}
            )
            for name, elem in self.differential.items()
        }
        return DGA(RING_Q, self.mode, list(self.generators.values()), diff, self.components)


# augmentations and linearization -------------------------------------------


@dataclass(frozen=True)
class Augmentation:
    """A verified algebra map to the ground ring, supported in degree 0."""

    values: Tuple[Tuple[str, Coeff], ...]


def _eps_product(coeff: Coeff, letters: Sequence[str], eps: Dict[str, Coeff]) -> Coeff:
    """coeff times the augmentation value of each letter, stopping at zero."""
    for letter in letters:
        coeff = coeff * eps[letter]
        if not coeff:
            break
    return coeff


def augment(dga: DGA, eps: Optional[Dict[str, Coeff]] = None) -> Augmentation:
    """Check that eps (default: zero) kills the differential and wrap it.

    eps must vanish off degree 0; eps(d x) != 0 raises NotAChainMap naming
    the violating generator.  The zero augmentation is valid exactly when no
    differential has a constant term.
    """
    eps = dict(eps or {})
    values: Dict[str, Coeff] = {}
    for name, g in dga.generators.items():
        c = coerce(dga.ring, eps.get(name, 0))
        if c and g.degree != 0:
            raise ValueError(
                f"augmentation supported on {name!r} of degree {g.degree}; needs degree 0"
            )
        values[name] = c

    for name in dga.generators:
        residue = sum((_eps_product(coeff, word, values)
                       for word, coeff in dga.d_of_generator(name).terms.items()), zero(dga.ring))
        if residue:
            raise NotAChainMap(name, f"eps(d {name}) = {residue} != 0")
    return Augmentation(tuple(sorted(values.items())))


class HomologySummary(NamedTuple):
    free_rank: int
    torsion: tuple  # invariant factors that are not units (Q[U] only)


@dataclass(frozen=True)
class ChainComplex:
    """Finite complex of free modules with labeled bases.

    ``boundary[k]`` is the matrix of d: C_k -> C_{k-1} with respect to the
    stored bases (rows indexed by the degree k-1 basis).
    """

    ring: str
    basis: Dict[int, Tuple]
    boundary: Dict[int, ExactMatrix]

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def verify(self):
        _check_square_zero(self, self.boundary)
        return self


def _check_square_zero(cx: ChainComplex, degrees: Iterable[int]) -> None:
    """Raise DSquareNonzero unless d_{k-1} d_k = 0 for every k in ``degrees``
    where both boundaries are stored.  The product is ``ring._sparse_product``
    on the sparse rows, with integral rationals made ints, whose arithmetic
    is faster."""
    sparse: Dict[int, List[Dict[int, Coeff]]] = {}

    def rows(k: int) -> List[Dict[int, Coeff]]:
        if k not in sparse:
            sparse[k] = [
                {j: x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
                 for j, x in row.items()}
                for row in cx.boundary[k].entries
            ]
        return sparse[k]

    for k in sorted(degrees):
        if k not in cx.boundary or k - 1 not in cx.boundary:
            continue
        if any(_sparse_product(rows(k - 1), rows(k))):
            raise DSquareNonzero(f"d^2 != 0 from degree {k}")


def _text(x) -> str:
    return ("*".join(x) or "1") if isinstance(x, tuple) else str(x)


def assemble_complex(ring: str, basis: Dict[int, Tuple], image,
                     degrees: Iterable[int]) -> ChainComplex:
    """The complex on ``basis`` whose boundary d_k, for k in ``degrees``, maps
    the span of ``basis[k]`` to the span of ``basis.get(k - 1, ())``, where
    ``image(col)`` gives {row element: coeff} with coeffs already in ``ring``
    (they are stored as they are, sparse).  A boundary with no nonzero entry
    is not stored.  This is the only builder of boundary matrices.

    A term outside the rows leaves the next degree down (or the requested
    link) and raises BidegreeViolation, however the basis was enumerated.
    """
    boundary: Dict[int, ExactMatrix] = {}
    for k in degrees:
        rows = basis.get(k - 1, ())
        index = {w: i for i, w in enumerate(rows)}
        entries: List[Dict[int, Coeff]] = [{} for _ in rows]
        for j, col in enumerate(basis[k]):
            for target, coeff in image(col).items():
                i = index.get(target)
                if i is None:
                    raise BidegreeViolation(
                        f"d({_text(col)}) has the term {_text(target)} outside the next degree down"
                    )
                if coeff:
                    entries[i][j] = coeff
        if any(entries):
            boundary[k] = ExactMatrix._from_entries(ring, entries, len(basis[k]))
    return ChainComplex(ring, basis, boundary)


def linearize(dga: DGA, aug: Augmentation) -> ChainComplex:
    """Linearized complex at an augmentation: basis the generators.

    Each generator is shifted by its augmentation value and only the terms
    that are linear afterwards survive; concretely a word g_1..g_m in d(x)
    contributes eps(g_1)..eps(g_{i-1}) * eps(g_{i+1})..eps(g_m) to the
    coefficient of g_i.
    """
    by_degree: Dict[int, List[str]] = {}
    for name, g in dga.generators.items():
        by_degree.setdefault(g.degree, []).append(name)
    degrees = sorted(by_degree)
    basis = {d: tuple(by_degree[d]) for d in degrees}
    eps = dict(aug.values)

    def image(name: str) -> Dict[str, Coeff]:
        out: Dict[str, Coeff] = {}
        for word, coeff in dga.d_of_generator(name).terms.items():
            for i, letter in enumerate(word):
                factor = _eps_product(coeff, word[:i] + word[i + 1:], eps)
                if factor:
                    out[letter] = out[letter] + factor if letter in out else factor
        return out

    return assemble_complex(dga.ring, basis, image, degrees).verify()


# Longest associative word that word_basis and cyclic.cyclic_basis will
# build.  Both recurse once per letter, so this keeps them well under
# Python's default limit of 1000 frames.
WORD_LENGTH_LIMIT = 500

# Largest number of basis elements in one degree that word_complex (words)
# and cyclic.cyclic_basis (predicted classes) will enumerate.  Boundaries
# are stored sparse, so this no longer caps dense cells; it bounds the
# enumeration and the elimination's fill-in, which grow faster than the
# basis.  The exact pair's cyclic window 0..19 (763 classes in degree 20)
# fits.
BASIS_LIMIT = 2000


def refuse_long_words(dga: DGA, degree: int) -> None:
    """The guard of every word basis: raise InfiniteBasis when a generator has
    degree <= 0 (a graded piece is then not a finite module), then TooLarge
    when associative words of ``degree`` may be longer than WORD_LENGTH_LIMIT
    letters (degree // least generator degree)."""
    degrees = [g.degree for g in dga.generators.values()]
    if any(d <= 0 for d in degrees):
        raise InfiniteBasis("word bases need strictly positive generator degrees")
    length = degree // min(degrees) if degrees else 0
    if dga.mode == MODE_ASSOCIATIVE and length > WORD_LENGTH_LIMIT:
        raise TooLarge(
            f"associative words of degree {degree} reach length {length} "
            f"(limit {WORD_LENGTH_LIMIT})"
        )


def _composable(left_source, right_target) -> bool:
    """Whether a letter leaving ``left_source`` may precede one entering
    ``right_target``; orbits (None) compose with anything."""
    return left_source is None or right_target is None or left_source == right_target


def _letters(dga: DGA, link: Optional[int]) -> List[tuple]:
    """(name, degree, link weight, source, target) of every generator a word
    of the requested link may contain, in name order.  Letters without a link
    are dropped when a link is requested; with none requested every weight
    is 0.  Source and target are chord endpoints in associative mode, None
    otherwise."""
    out = []
    for name in sorted(dga.generators):
        g = dga.generators[name]
        if link is not None and g.link is None:
            continue
        out.append((name, g.degree, 0 if link is None else g.link) + dga._ends[name])
    return out


def _add_composable_row(table: List[Dict[tuple, int]], letters: List[tuple], anchored: bool):
    """Append to ``table``, whose row r' holds the words of degree r' for every
    r' < r = len(table), the row of degree r: {(link, source of the last
    letter): count} over nonempty associative words whose adjacent letters
    compose.  Each word counts once or, when ``anchored``, as often as the
    degree of its first letter (the words anchored at one point of a circle
    of circumference r).  Row 0 is empty."""
    r = len(table)
    row: Dict[tuple, int] = {}
    for _, deg, lk, src, tgt in letters:
        if deg == r:
            row[lk, src] = row.get((lk, src), 0) + (deg if anchored else 1)
        elif deg < r:
            for (s, c), count in table[r - deg].items():
                if _composable(c, tgt):
                    row[s + lk, src] = row.get((s + lk, src), 0) + count
    table.append(row)


def _normal_words(dga: DGA, letters: List[tuple], top: int) -> List[Dict[int, int]]:
    """Per degree r <= top: {link: count} of normalized commutative words."""
    table: List[Dict[int, int]] = [{} for _ in range(top + 1)]
    table[0][0] = 1
    for name, deg, lk, _, _ in letters:
        odd = dga.generators[name].parity
        # odd letters at most once (descending sweep), even ones any number
        for r in (range(top - deg, -1, -1) if odd else range(top - deg + 1)):
            for s, count in table[r].items():
                row = table[r + deg]
                row[s + lk] = row.get(s + lk, 0) + count
    return table


def _refuse_large_word_bases(dga: DGA, lo: int, hi: int) -> None:
    """Raise TooLarge when a degree in [lo, hi] has more than BASIS_LIMIT
    normalized words, counted from tables without listing any word."""
    letters = _letters(dga, None)
    if dga.mode == MODE_ASSOCIATIVE:
        table: List[Dict[tuple, int]] = [{}]
        for _ in range(hi):
            _add_composable_row(table, letters, False)
        counts = [sum(row.values()) for row in table]
    else:
        counts = [row.get(0, 0) for row in _normal_words(dga, letters, max(hi, 0))]
    for k in range(max(lo, 1), hi + 1):
        if counts[k] > BASIS_LIMIT:
            raise TooLarge(
                f"word basis in degree {k} has {counts[k]} words (limit {BASIS_LIMIT})"
            )


def word_basis(dga: DGA, degree: int) -> Tuple[Word, ...]:
    """All normalized words of a given degree, requiring positive generator degrees."""
    refuse_long_words(dga, degree)
    gens = tuple(dga.generators.values())
    out: List[Word] = []
    if dga.mode == MODE_COMMUTATIVE:

        def rec(i: int, remaining: int, acc: List[str]):
            if remaining == 0:
                out.append(tuple(acc))
                return
            if i == len(gens):
                return
            g = gens[i]
            rec(i + 1, remaining, acc)
            max_mult = 1 if g.parity else remaining // g.degree
            for mult in range(1, max_mult + 1):
                cost = mult * g.degree
                if cost > remaining:
                    break
                rec(i + 1, remaining - cost, acc + [g.name] * mult)

        rec(0, degree, [])
        return tuple(sorted(out))

    letters = _letters(dga, None)

    def rec_assoc(remaining: int, acc: List[str], last):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for name, deg, _, src, tgt in letters:
            if deg <= remaining and _composable(last, tgt):
                rec_assoc(remaining - deg, acc + [name], src)

    rec_assoc(degree, [], None)
    return tuple(sorted(out))


def word_complex(dga: DGA, lo: int, hi: int) -> ChainComplex:
    """The full algebra as a complex of free modules on word bases in [lo, hi].

    The complex is truncated below ``lo`` and above ``hi``: d_lo is not
    stored, so homology on [lo, hi] is read from the complex on
    [max(lo - 1, 0), hi + 1].
    Raises, before enumerating any degree, NotSupported when the window holds
    degree 0 and the algebra is associative over more than one component (one
    empty word stands for one idempotent per component), what
    ``refuse_long_words`` raises for degree ``hi``, and TooLarge when some
    degree has more than BASIS_LIMIT words.
    """
    if dga._partial and lo <= 0 <= hi:
        raise NotSupported(f"the word complex over {dga.components} components has one empty "
                           f"word for {dga.components} idempotents, so degree 0 is not computed")
    refuse_long_words(dga, hi)
    _refuse_large_word_bases(dga, lo, hi)
    basis = {k: word_basis(dga, k) for k in range(lo, hi + 1)}
    unit = one(dga.ring)

    def image(word: Word) -> Dict[Word, Coeff]:
        return dga.apply_differential(AlgebraElement(dga.ring, {word: unit})).terms

    return assemble_complex(dga.ring, basis, image, range(lo + 1, hi + 1))


# interchange ---------------------------------------------------------------


def _kind_to_str(kind: tuple) -> str:
    if kind[0] == "orbit":
        return "orbit"
    return f"chord:{kind[1]}:{kind[2]}"


def _kind_from_str(text: str) -> tuple:
    if text == "orbit":
        return ("orbit",)
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "chord":
        return ("chord", int(parts[1]), int(parts[2]))
    raise ValueError(f"unknown generator kind {text!r}")


def _coeff_to_doc(ring: str, c: Coeff) -> List[dict]:
    if ring == RING_Q:
        return [{"coeff": str(c), "upow": 0}]
    return [
        {"coeff": str(q), "upow": i}
        for i, q in enumerate(c.coeffs)
        if q
    ]


def dga_to_doc(dga: DGA) -> dict:
    """Serialize to the interchange schema (deterministic ordering)."""
    gens = [
        {
            "name": g.name,
            "deg": g.degree,
            "link": g.link,
            "good": g.good,
            "kind": _kind_to_str(g.kind),
        }
        for g in dga.generators.values()
    ]
    diff = {}
    for name in sorted(dga.differential):
        entries = []
        for word, coeff in dga.differential[name].sorted_terms():
            for piece in _coeff_to_doc(dga.ring, coeff):
                entries.append({**piece, "word": list(word)})
        if entries:
            diff[name] = entries
    doc = {"ring": dga.ring, "mode": dga.mode, "generators": gens, "differential": diff}
    if dga.mode == MODE_ASSOCIATIVE:
        doc["components"] = dga.components
    return doc


def dga_from_doc(doc: dict) -> DGA:
    try:
        ring = doc["ring"]
        mode = doc["mode"]
        components = operator.index(doc.get("components", 1))
        gens = [
            Generator(
                name=str(g["name"]),
                degree=operator.index(g["deg"]),
                link=None if g.get("link") is None else operator.index(g["link"]),
                good=bool(g.get("good", True)),
                kind=_kind_from_str(g.get("kind", "orbit")),
            )
            for g in doc["generators"]
        ]
        differential = doc.get("differential", {})
        if not isinstance(differential, dict):
            raise TypeError("differential is not a JSON object")
        diff = {}
        for name, entries in differential.items():
            terms: Dict[Word, Coeff] = {}
            for entry in entries:
                word = entry["word"]
                if not isinstance(word, list):
                    raise TypeError(f"word {word!r} in d({name}) is not a JSON list")
                word = tuple(str(x) for x in word)
                q = rat(str(entry["coeff"]))
                add = coerce(ring, UPoly.monomial(operator.index(entry.get("upow", 0)), q))
                terms[word] = terms[word] + add if word in terms else add
            diff[name] = AlgebraElement(ring, terms)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc
    return DGA(ring, mode, gens, diff, components)


def homology(cx: ChainComplex, lo: int, hi: int) -> Dict[int, HomologySummary]:
    """Per-degree homology of a complex of free modules.

    Each stored boundary d_k of the window is factored once, for its rank and
    its non-unit invariant factors (``ring._rank_and_torsion``); a boundary
    that is not stored has rank 0.  Over a PID ker d_k is a summand of C_k,
    so H_k is free of rank dim C_k - rk d_k - rk d_{k+1} plus the torsion
    given by the non-unit invariant factors of d_{k+1}.  Raises
    DSquareNonzero when two stored boundaries of the window do not compose
    to zero.
    """
    _check_square_zero(cx, range(lo + 1, hi + 2))
    factored = {k: _rank_and_torsion(cx.boundary[k])
                for k in range(lo, hi + 2) if k in cx.boundary}
    out: Dict[int, HomologySummary] = {}
    for k in range(lo, hi + 1):
        rank_in, torsion = factored.get(k + 1, (0, ()))
        out[k] = HomologySummary(cx.dim(k) - factored.get(k, (0, ()))[0] - rank_in, torsion)
    return out
