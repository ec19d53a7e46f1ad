"""Reduced cyclic chain complex of a free dg-algebra.

Nonempty words are identified under the signed rotation operator
t(g_1 ... g_l) = (-1)^{|g_1|(|g_2|+...+|g_l|)} g_2 ... g_l g_1; classes whose
rotation orbit returns to the same word with sign -1 vanish rationally and
are omitted.  The algebra differential descends to the coinvariants, and
reduced cyclic homology is the homology of the resulting complex.

Rotating the first i letters (of total degree P_i) of a word of degree D to
the back costs the sign (-1)^{P_i (D - P_i)}.  So a class dies exactly when
P_p (D - P_p) is odd for the word's primitive period p, and a word is related
to its least rotation by the sign at that rotation's offset.  In associative
mode each class is represented by its least rotation (a necklace, letters
compared by name), generated directly by a Fredricksen-Kessler-Maiorana
prenecklace recursion (Ruskey & Sawada, SIAM J. Comput. 1999); in
commutative mode every nonzero normalized word is alone in its class.

Degree-0 generators are rejected: each graded piece must be a finite module.
Degrees whose predicted class count exceeds ``dga.BASIS_LIMIT``, and
associative windows whose words may exceed ``dga.WORD_LENGTH_LIMIT`` letters,
are refused with ``TooLarge`` before anything is enumerated.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from .dga import (
    BASIS_LIMIT,
    DGA,
    MODE_ASSOCIATIVE,
    AlgebraElement,
    ChainComplex,
    Coeff,
    HomologySummary,
    Word,
    _add_composable_row,
    _composable,
    _letters,
    _normal_words,
    assemble_boundary,
    homology,
    refuse_long_words,
    word_basis,
)
from .errors import InfiniteBasis, TooLarge


def _least_rotation(word: Word) -> Tuple[int, int]:
    """Offset of the least rotation of ``word`` and its primitive period, in
    O(l) comparisons (two-pointer minimum rotation, then the necklace's
    longest Lyndon prefix)."""
    n = len(word)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = word[(i + k) % n], word[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    least = word[start:] + word[:start]
    period = 1
    for t in range(1, n):
        if least[t] != least[t - period]:
            period = t + 1
    return start, period


def rotation_class(dga: DGA, word: Word) -> Optional[Tuple[Word, int]]:
    """Least rotation of a nonempty word of an associative algebra and the
    sign relating the word to it; None for classes that vanish, including
    words that do not close up cyclically.  Commutative algebras have no
    rotations to take (every normalized word is its own class) and raise
    ValueError."""
    if not word:
        raise ValueError("cyclic words are nonempty")
    if dga.mode != MODE_ASSOCIATIVE:
        raise ValueError("rotation classes are taken in associative algebras")
    gens = [dga.generators[name] for name in word]
    if len(gens) > 1:
        for left, right in zip(gens[-1:] + gens[:-1], gens):
            if left.is_chord and right.is_chord and left.kind[1] != right.kind[2]:
                return None  # the word does not close up cyclically
    return _rotate(word, [g.degree for g in gens])


def _rotate(word: Word, degrees: List[int]) -> Optional[Tuple[Word, int]]:
    """``rotation_class`` of a word that closes up cyclically, given the
    degrees of its letters."""
    start, period = _least_rotation(word)
    total = sum(degrees)
    root = sum(degrees[:period])
    if root * (total - root) % 2:
        return None
    head = sum(degrees[:start])
    return word[start:] + word[:start], (-1 if head * (total - head) % 2 else 1)


def _refuse_oversized(degree: int, bound: int):
    if bound > BASIS_LIMIT:
        raise TooLarge(
            f"cyclic basis in degree {degree} predicted up to {bound} classes "
            f"(limit {BASIS_LIMIT})"
        )


def _class_bound(anchored: List[Dict[tuple, int]], degree: int, link: int) -> int:
    """Upper bound on the number of necklaces of one degree and link.

    Rotation by s in Z_degree acts on anchored words; its fixed points repeat
    a block of degree gcd(s, degree) and are at most the anchored words of
    that block.  Burnside's lemma (the weighted Moreau formula) then bounds
    the orbits by (1/D) sum_{d | D, d | link} phi(d) * anchored(D/d, link/d).
    """
    from math import gcd

    total = 0
    for d in range(1, degree + 1):
        if degree % d or link % d:
            continue
        phi = sum(1 for x in range(1, d + 1) if gcd(x, d) == 1)
        total += phi * sum(n for (s, _), n in anchored[degree // d].items() if s == link // d)
    return total // degree


def _necklaces(letters: List[tuple], degree: int, link: int, reach: List[set]) -> List[Word]:
    """Least rotations of the surviving associative classes of one degree and
    link, in lexicographic order.

    A prenecklace recursion: the letter at position t is at least the one at
    t - p, where p is the length of the longest Lyndon prefix, and the word is
    a necklace of primitive period p when p divides its length.  Prefixes are
    pruned when no completion of the remaining degree reaches the remaining
    link (``reach``), and when adjacent chords, or the last and first letters,
    do not compose.
    """
    word: List[int] = []
    prefix = [0]  # prefix[i]: degree of the first i letters
    out: List[Word] = []

    def extend(period: int, rem: int, need: int):
        t = len(word)
        if rem == 0:
            if t % period == 0:
                root = prefix[period]
                # survives when P_p (D - P_p) = P_p^2 (t/p - 1) is even
                if not (root & 1 and (t // period) % 2 == 0):
                    out.append(tuple(letters[i][0] for i in word))
            return
        ref = word[t - period] if t else -1
        last = letters[word[-1]][3] if t else None
        first = letters[word[0]][4] if t else None
        for i in range(max(ref, 0), len(letters)):
            _, deg, lk, src, tgt = letters[i]
            if deg > rem or need - lk not in reach[rem - deg] or not _composable(last, tgt):
                continue
            if deg == rem and t and not _composable(src, first):
                continue
            word.append(i)
            prefix.append(prefix[-1] + deg)
            extend(period if i == ref else t + 1, rem - deg, need - lk)
            word.pop()
            prefix.pop()

    extend(1, degree, link)
    return out


def cyclic_basis(dga: DGA, lo: int, hi: int, link: Optional[int] = None) -> Dict[int, Tuple[Word, ...]]:
    """Canonical words of the nonzero classes, per degree in [lo, hi].

    Raises TooLarge, before enumerating any degree, when some degree's
    predicted class count exceeds BASIS_LIMIT or, in associative
    mode, when words of degree ``hi`` may exceed WORD_LENGTH_LIMIT letters.
    """
    if any(g.degree <= 0 for g in dga.generators.values()):
        raise InfiniteBasis("cyclic bases need strictly positive generator degrees")
    letters = _letters(dga, link)
    target = 0 if link is None else link
    degrees = range(max(lo, 1), hi + 1)
    out: Dict[int, Tuple[Word, ...]] = {k: () for k in range(lo, hi + 1)}
    if dga.mode == MODE_ASSOCIATIVE:
        refuse_long_words(dga, hi)
        # rows are built in increasing degree, so an oversized window stops
        # at its first oversized degree
        table: List[Dict[tuple, int]] = [{}]
        for k in range(1, hi + 1):
            _add_composable_row(table, letters, True)
            if k in degrees:
                _refuse_oversized(k, _class_bound(table, k, target))
        reach = [{0}] + [{s for s, _ in row} for row in table[1:]]
        for k in degrees:
            out[k] = tuple(_necklaces(letters, k, target, reach))
        return out
    counts = _normal_words(dga, letters, max(hi, 0))
    for k in degrees:
        _refuse_oversized(k, counts[k].get(target, 0))
    for k in degrees:
        out[k] = tuple(w for w in word_basis(dga, k)
                       if link is None or dga.link_of_word(w) == link)
    return out


def cyclic_differential(dga: DGA, word: Word) -> Dict[Word, Coeff]:
    """Differential of the class of a canonical word: differentiate the word
    and drop its constant term, which dies in the quotient by the ground
    ring.  Associative terms are then carried to their least rotations; the
    commutative ones are normalized words already, each its own class.

    Every associative term that ``DGA._leibniz`` yields composes, so only
    its wrap seam, from its last letter to its first, can keep it from
    closing up cyclically.
    """
    if dga.mode != MODE_ASSOCIATIVE:
        image = dga.apply_differential(AlgebraElement(dga.ring, {word: 1})).terms
        image.pop((), None)
        return image
    raw: Dict[Word, Coeff] = {}
    for term, coeff in dga._leibniz(word):
        raw[term] = raw[term] + coeff if term in raw else coeff
    raw.pop((), None)
    table = dga._leibniz_table
    acc: Dict[Word, Coeff] = {}
    for term, coeff in raw.items():
        if not coeff or len(term) > 1 and not _composable(table[term[-1]][1], table[term[0]][2]):
            continue
        cls = _rotate(term, [table[name][0] for name in term])
        if cls is None:
            continue
        canonical, sign = cls
        value = coeff if sign > 0 else -coeff
        total = acc[canonical] + value if canonical in acc else value
        if total:
            acc[canonical] = total
        else:
            del acc[canonical]
    return acc


def cyclic_complex(dga: DGA, lo: int, hi: int, link: Optional[int] = None) -> ChainComplex:
    """Coinvariant complex on [lo-1, hi+1], ready for homology in [lo, hi]."""
    span_lo = max(lo - 1, 0)
    basis = cyclic_basis(dga, span_lo, hi + 1, link=link)
    image = partial(cyclic_differential, dga)
    boundary = {}
    for k in range(span_lo + 1, hi + 2):
        mat = assemble_boundary(dga.ring, basis[k - 1], basis[k], image)
        if mat is not None:
            boundary[k] = mat
    return ChainComplex(dga.ring, basis, boundary)


def reduced_cyclic_homology(
    dga: DGA, lo: int, hi: int, link: Optional[int] = None
) -> Dict[int, HomologySummary]:
    """Exact per-degree homology of the reduced cyclic complex on [lo, hi]."""
    cx = cyclic_complex(dga, lo, hi, link=link)
    return homology(cx, lo, hi)
