"""Cyclic coinvariant tests.

The independent oracle builds the coinvariant complex by raw linear algebra
on word bases: the relation subspace is spanned by w - t(w) over all words,
and induced ranks come from quotient-space rank arithmetic, with no use of
canonical representatives.
"""

import json
import re
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import helpers
from helpers import rank, seeded_rng
from sftkit.cyclic import (
    cyclic_basis,
    cyclic_complex,
    cyclic_differential,
    reduced_cyclic_homology,
    rotation_class,
)
import sftkit.dga
from sftkit.dga import (
    BASIS_LIMIT,
    DGA,
    AlgebraElement,
    Generator,
    dga_from_doc,
    word_basis,
    word_complex,
)
from sftkit.errors import InfiniteBasis, NonComposable, TooLarge
from sftkit.ring import RING_Q, RING_QU, ExactMatrix, UPoly

DATA = Path(__file__).parent / "data"


def load(name: str) -> DGA:
    return dga_from_doc(json.loads((DATA / name).read_text()))


def assoc(gens, diff=None):
    return DGA(RING_Q, "associative", gens, diff)


# rotation classes ------------------------------------------------------------


def test_odd_square_class_dies():
    d = assoc([Generator("x", 1)])
    assert rotation_class(d, ("x", "x")) is None


def test_even_square_class_survives():
    d = assoc([Generator("b", 2)])
    assert rotation_class(d, ("b", "b")) == (("b", "b"), 1)


def test_single_letter_classes():
    d = assoc([Generator("x", 1), Generator("b", 2)])
    basis = cyclic_basis(d, 1, 2)
    assert basis[1] == (("x",),)
    assert ("b",) in basis[2]


def test_projection_signs():
    # abb ~ bba ~ -bab for |a| even, |b| odd
    d = assoc([Generator("a", 2), Generator("b", 1)])
    canonical, sign = rotation_class(d, ("b", "a", "b"))
    assert canonical == ("a", "b", "b")
    assert sign == -1
    assert rotation_class(d, ("b", "b", "a")) == (("a", "b", "b"), 1)


def test_rotation_class_takes_associative_words_only():
    d = DGA(RING_Q, "commutative", [Generator("x", 1), Generator("y", 1)])
    with pytest.raises(ValueError, match="associative"):
        rotation_class(d, ("y", "x"))


# differentials ----------------------------------------------------------------


def exact_pair(deg_a=2):
    return assoc(
        [Generator("a", deg_a), Generator("b", deg_a - 1)],
        {"a": AlgebraElement(RING_Q, {("b",): 1})},
    )


def test_length_one_differential():
    d = exact_pair()
    out = cyclic_differential(d, ("a",))
    assert out == {("b",): Fraction(1)}


def test_leibniz_then_identification():
    # d[aa] = [ba] + [ab] = 2[ab] when a is even with da = b
    d = exact_pair(deg_a=2)
    out = cyclic_differential(d, ("a", "a"))
    assert out == {("a", "b"): Fraction(2)}


def test_zero_differential_gives_zero():
    d = assoc([Generator("g", 2)])
    assert cyclic_differential(d, ("g", "g")) == {}


def test_representative_independence():
    rng = seeded_rng(50)
    d = exact_pair()
    names = list(d.generators)
    for _ in range(100):
        word = tuple(rng.choice(names) for _ in range(rng.randint(1, 6)))
        cls = rotation_class(d, word)
        if cls is None:
            continue
        canonical, sign = cls
        image_from_canonical = cyclic_differential(d, canonical)
        raw = d.apply_differential(AlgebraElement(RING_Q, {word: Fraction(1)}))
        image_from_word = {}
        for w, c in raw.terms.items():
            if not w:
                continue
            projected = helpers.project_word(d, w, c)
            if projected is None:
                continue
            key, val = projected
            image_from_word[key] = image_from_word.get(key, Fraction(0)) + val
        image_from_word = {k: v for k, v in image_from_word.items() if v}
        scaled = {k: sign * v for k, v in image_from_canonical.items()}
        assert image_from_word == scaled


def test_d_tau_squares_to_zero():
    d = load("orbit_qu.json").evaluate_U(1)
    basis = cyclic_basis(d, 1, 8)
    for k, words in basis.items():
        for cw in words:
            once = cyclic_differential(d, cw)
            twice = {}
            for word, coeff in once.items():
                for w2, c2 in cyclic_differential(d, word).items():
                    twice[w2] = twice.get(w2, Fraction(0)) + coeff * c2
            assert all(v == 0 for v in twice.values())


def chords():
    # p: 0 -> 1, q: 1 -> 0, r: 1 -> 1 (kind = chord, source, target); a chord
    # may follow another exactly when its target is the other's source
    return [Generator("p", 2, kind=("chord", 0, 1)), Generator("q", 1, kind=("chord", 1, 0)),
            Generator("r", 1, kind=("chord", 1, 1))]


def test_seam_that_does_not_compose_raises():
    d = DGA(RING_Q, "associative", chords(), {"p": AlgebraElement(RING_Q, {("r",): 1})}, 2)
    message = re.escape("'r' (from component 1) cannot follow 'q' (into component 0)")
    with pytest.raises(NonComposable, match=message):
        d.apply_differential(AlgebraElement(RING_Q, {("p", "q"): 1}))
    with pytest.raises(NonComposable, match=message):
        cyclic_differential(d, ("p", "q"))


def test_input_word_that_does_not_compose():
    d = DGA(RING_Q, "associative", chords(), {"p": AlgebraElement(RING_Q, {("r",): 1})}, 2)
    # p*r does not compose, but its one Leibniz term r*r does
    assert d.apply_differential(AlgebraElement(RING_Q, {("p", "r"): 1})) == AlgebraElement(
        RING_Q, {("r", "r"): 1})
    # p*p does not compose, and neither does its second term p*r
    with pytest.raises(NonComposable, match=re.escape("'p' (from component 0) cannot follow 'r'")):
        d.apply_differential(AlgebraElement(RING_Q, {("p", "p"): 1}))


# independent oracle -----------------------------------------------------------


def oracle_ranks(dga: DGA, lo: int, hi: int):
    """Coinvariant homology ranks from raw word linear algebra."""

    def words(k):
        return [w for w in word_basis(dga, k) if w]

    def tau_matrix(basis):
        # rows/cols indexed by basis; (1 - tau) applied to each basis word
        idx = {w: i for i, w in enumerate(basis)}
        rows = []
        for w in basis:
            first, rest = w[0], w[1:]
            koszul = (
                -1
                if (dga.generators[first].parity and dga.degree_of_word(rest) % 2)
                else 1
            )
            rotated, extra = dga.normalize_word(rest + (first,), koszul)
            vec = [Fraction(0)] * len(basis)
            vec[idx[w]] += 1
            if extra:
                vec[idx[rotated]] -= extra
            rows.append(vec)
        return ExactMatrix(RING_Q, list(map(list, zip(*rows)))) if basis else None

    def diff_matrix(src, dst):
        idx = {w: i for i, w in enumerate(dst)}
        cols = []
        for w in src:
            image = dga.apply_differential(AlgebraElement(RING_Q, {w: Fraction(1)}))
            vec = [Fraction(0)] * len(dst)
            for ww, c in image.terms.items():
                if ww:
                    vec[idx[ww]] += c
            cols.append(vec)
        return ExactMatrix(RING_Q, list(map(list, zip(*cols)))) if src and dst else None

    def stacked_rank(rel, mat):
        if rel is None and mat is None:
            return 0, 0
        if mat is None:
            return (rank(rel) if rel else 0), 0
        if rel is None:
            return 0, rank(mat)
        combined = ExactMatrix(
            RING_Q, [list(a) + list(b) for a, b in zip(rel.rows, mat.rows)]
        )
        rel_rank = rank(rel)
        return rel_rank, rank(combined) - rel_rank

    bases = {k: words(k) for k in range(max(lo - 1, 0), hi + 2)}
    ranks = {}
    for k in range(lo, hi + 1):
        basis_k = bases.get(k, [])
        if not basis_k:
            ranks[k] = 0
            continue
        rel_k = tau_matrix(basis_k)
        dim_coinv = len(basis_k) - (rank(rel_k) if rel_k else 0)
        # rank of the induced map out of degree k
        rel_below = tau_matrix(bases.get(k - 1, []))
        d_out = diff_matrix(basis_k, bases.get(k - 1, []))
        _, rank_out = stacked_rank(rel_below, d_out)
        # rank of the induced map into degree k
        d_in = diff_matrix(bases.get(k + 1, []), basis_k)
        _, rank_in = stacked_rank(rel_k, d_in)
        ranks[k] = dim_coinv - rank_out - rank_in
    return ranks


def test_matches_oracle_on_exact_pair():
    d = exact_pair()
    got = {k: v.free_rank for k, v in reduced_cyclic_homology(d, 0, 8).items()}
    assert got == oracle_ranks(d, 0, 8)
    # a contractible pair leaves no cyclic classes at all
    assert all(v == 0 for v in got.values())


def test_matches_oracle_on_unit_exact_algebra():
    d = load("acyclic_unit.json")
    got = {k: v.free_rank for k, v in reduced_cyclic_homology(d, 0, 9).items()}
    assert got == oracle_ranks(d, 0, 9)
    assert got == {k: (1 if k % 2 == 1 else 0) for k in range(0, 10)}


def test_matches_oracle_on_legendrian_example():
    d = load("legendrian_q.json")
    got = {k: v.free_rank for k, v in reduced_cyclic_homology(d, 1, 6).items()}
    assert got == oracle_ranks(d, 1, 6)


def test_unit_exact_pattern_is_stable_under_extra_pairs():
    # adjoining exact pairs keeps the unit a boundary, hence the odd pattern
    d = assoc(
        [Generator("x", 1), Generator("a", 3), Generator("b", 2)],
        {
            "x": AlgebraElement(RING_Q, {(): 1}),
            "a": AlgebraElement(RING_Q, {("b",): 1}),
        },
    )
    assert d.check_d_squared() == []
    got = {k: v.free_rank for k, v in reduced_cyclic_homology(d, 0, 7).items()}
    assert got == {k: (1 if k % 2 == 1 else 0) for k in range(0, 8)}


def test_even_generator_powers_survive():
    d = assoc([Generator("g", 2)])
    got = {k: v.free_rank for k, v in reduced_cyclic_homology(d, 0, 8).items()}
    assert got == {0: 0, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1, 7: 0, 8: 1}


def test_empty_algebra():
    d = assoc([])
    got = reduced_cyclic_homology(d, 0, 4)
    assert all(v.free_rank == 0 for v in got.values())


def test_degree_zero_generators_rejected():
    d = assoc([Generator("e", 0)])
    with pytest.raises(InfiniteBasis):
        reduced_cyclic_homology(d, 0, 2)


# necklace generation against the rotate-and-normalize reference ----------------


@st.composite
def random_algebras(draw):
    """Free algebras of both modes on 1-4 generators of degree 1-4 with links
    None/0/1/2, orbits and chords over 1-2 components, named so that name
    order and degree order disagree."""
    mode = draw(st.sampled_from(["associative", "commutative"]))
    components = draw(st.integers(1, 2))
    names = draw(st.permutations(["a", "b", "c", "d"]))[:draw(st.integers(1, 4))]
    component = st.integers(0, components - 1)
    gens = []
    for name in names:
        kind = ("chord", draw(component), draw(component)) if draw(st.booleans()) else ("orbit",)
        gens.append(Generator(name, draw(st.integers(1, 4)),
                              draw(st.sampled_from([None, 0, 1, 2])), kind))
    return DGA(RING_Q, mode, gens, components=components)


@st.composite
def random_dg_algebras(draw):
    """``random_algebras`` over Q or Q[U] with a random differential: each
    generator maps to zero or up to two words one degree lower (the unit for
    degree 1), whose chords need not match its endpoints, so a Leibniz term
    may not compose; d^2 need not vanish."""
    base = draw(random_algebras())
    ring = draw(st.sampled_from([RING_Q, RING_QU]))
    diff = {}
    for name, g in base.generators.items():
        words = word_basis(base, g.degree - 1)
        terms = draw(st.lists(st.sampled_from(words), max_size=2, unique=True)) if words else []
        if terms:
            diff[name] = AlgebraElement(ring, {w: draw(coefficients(ring)) for w in terms})
    return DGA(ring, base.mode, list(base.generators.values()), diff, base.components)


def coefficients(ring):
    small = st.integers(-2, 2).filter(bool)
    if ring == RING_Q:
        return st.builds(Fraction, small, st.integers(1, 2))
    return st.builds(lambda c, e: UPoly.monomial(e, c), small, st.integers(0, 1))


def word_count(dga, top):
    """Number of raw words of degree 1..top, an upper bound on the work of
    the reference path."""
    counts = [1] + [0] * top
    for k in range(1, top + 1):
        counts[k] = sum(counts[k - g.degree] for g in dga.generators.values() if g.degree <= k)
    return sum(counts[1:])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_algebras())
def test_necklace_basis_matches_reference(d):
    assume(word_count(d, 9) <= 5000)
    for link in (None, 0, 1, 2, 3):
        assert cyclic_basis(d, 0, 9, link) == helpers.cyclic_basis(d, 0, 9, link)
    if d.mode == "associative":
        for k in range(1, 8):
            for word in word_basis(d, k):
                assert rotation_class(d, word) == helpers.rotation_class(d, word)


def agree(reference, fast):
    """fast() == reference(), or both raise NonComposable with one message."""
    try:
        want = reference()
    except NonComposable as exc:
        with pytest.raises(NonComposable, match=re.escape(str(exc))):
            fast()
        return
    assert fast() == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_dg_algebras(), st.integers(0, 8))
# r*p composes but does not close up (p leaves component 0, r enters 1)
@example(DGA(RING_QU, "associative", chords() + [Generator("x", 4)],
             {"x": AlgebraElement(RING_QU, {("r", "p"): UPoly.monomial(1)})}, 2), 6)
def test_cyclic_complex_matches_raw_word_reference(d, hi):
    assume(word_count(d, hi + 1) <= 5000)
    basis = cyclic_basis(d, 0, hi + 1)
    agree(lambda: helpers.cyclic_boundaries(d, basis), lambda: cyclic_complex(d, 0, hi).boundary)
    # every word up to degree 5, whether or not it is canonical or closes up
    for k in range(1, min(hi, 5) + 1):
        for word in word_basis(d, k):
            agree(lambda: helpers.cyclic_differential(d, word),
                  lambda: cyclic_differential(d, word))


@settings(max_examples=150, deadline=None)
@given(random_dg_algebras(), st.data())
def test_apply_differential_matches_raw_word_reference(d, data):
    # raw letter sequences: the input words need not compose either
    word = st.lists(st.sampled_from(sorted(d.generators)), max_size=6).map(tuple)
    elem = AlgebraElement(d.ring, {w: data.draw(coefficients(d.ring))
                                   for w in data.draw(st.lists(word, min_size=1, max_size=3))})
    agree(lambda: helpers.apply_differential(d, elem), lambda: d.apply_differential(elem))


def brute_force_words(dga, degree):
    """Normalized words of a degree, from every letter sequence of that
    degree through ``normalize_word``, non-composable and zero words dropped."""
    out = set()

    def rec(remaining, acc):
        if remaining == 0:
            try:
                word, coeff = dga.normalize_word(acc)
            except NonComposable:
                return
            if coeff:
                out.add(word)
            return
        for g in dga.generators.values():
            if g.degree <= remaining:
                rec(remaining - g.degree, acc + (g.name,))

    rec(degree, ())
    return tuple(sorted(out))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_algebras())
def test_word_basis_matches_brute_force(d):
    assume(word_count(d, 7) <= 5000)
    for k in range(0, 8):
        assert word_basis(d, k) == brute_force_words(d, k)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_algebras(), st.integers(1, 9))
def test_word_complex_refuses_exactly_above_the_word_count(d, k):
    # The counted word basis is refused at one word above the limit and
    # accepted at the limit, so the count equals the enumerated basis.
    assume(word_count(d, k) <= 5000)
    n = len(word_basis(d, k))
    with mock.patch.object(sftkit.dga, "BASIS_LIMIT", n):
        word_complex(d, k, k)
    if n:
        with mock.patch.object(sftkit.dga, "BASIS_LIMIT", n - 1):
            with pytest.raises(TooLarge, match=f"degree {k} has {n} words"):
                word_complex(d, k, k)


def test_oversized_degree_is_refused():
    # The exact pair has 2787 necklaces in degree 23, the first degree above
    # the limit; degree 20, the top of the window 0..19, still fits.
    with pytest.raises(TooLarge, match="degree 23 predicted up to 2787"):
        cyclic_basis(exact_pair(), 0, 40)
    assert len(cyclic_basis(exact_pair(), 20, 20)[20]) == 763 <= BASIS_LIMIT
    # Commutative classes are counted as monomials, not as necklaces.
    orbit = load("orbit_qu.json").evaluate_U(1)
    assert len(cyclic_basis(orbit, 40, 40)[40]) == 21
    evens = DGA(RING_Q, "commutative", [Generator(f"e{i}", 2) for i in range(8)])
    with pytest.raises(TooLarge, match="degree 14 predicted up to 3432"):
        cyclic_basis(evens, 1, 40)


def test_exact_pair_worst_window_is_fast():
    # 0.3-0.45 s on a 2-vCPU host; with dense boundaries and every Leibniz term
    # checked whole it took 0.7-1.3 s
    start = time.perf_counter()
    got = reduced_cyclic_homology(load("exact_pair.json"), 0, 19)
    assert time.perf_counter() - start < 3
    assert sorted(got) == list(range(20))
    assert all(s.free_rank == 0 and s.torsion == () for s in got.values())
