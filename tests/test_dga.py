import json
from fractions import Fraction
from pathlib import Path

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from helpers import evaluate, multiply, reference_homology, scaled, seeded_rng
from sftkit.cyclic import cyclic_complex
from sftkit.dga import (
    DGA,
    AlgebraElement,
    ChainComplex,
    MODE_ASSOCIATIVE,
    Generator,
    augment,
    dga_from_doc,
    dga_to_doc,
    homology,
    linearize,
    word_basis,
    word_complex,
)
from sftkit.errors import DSquareNonzero, NonComposable, NotAChainMap, NotSupported, TooLarge
from sftkit.ring import RING_Q, RING_QU, ExactMatrix, UPoly

DATA = Path(__file__).parent / "data"


def load(name: str) -> DGA:
    return dga_from_doc(json.loads((DATA / name).read_text()))


def make_q(mode, gens, diff=None, components=1):
    return DGA(RING_Q, mode, gens, diff, components)


# normalization --------------------------------------------------------------


def test_normalize_odd_transposition():
    d = make_q("commutative", [Generator("x", 1), Generator("y", 1)])
    word, coeff = d.normalize_word(("y", "x"))
    assert word == ("x", "y") and coeff == -1


def test_normalize_odd_square_vanishes():
    d = make_q("commutative", [Generator("x", 1)])
    _, coeff = d.normalize_word(("x", "x"))
    assert coeff == 0


def test_normalize_composability():
    d = make_q(
        "associative",
        [Generator("c12", 1, kind=("chord", 0, 1)), Generator("c34", 1, kind=("chord", 2, 3))],
        components=4,
    )
    with pytest.raises(NonComposable):
        d.normalize_word(("c12", "c34"))


def test_normalize_idempotent_and_sign_involutive():
    rng = seeded_rng(40)
    gens = [Generator(f"g{i}", i) for i in range(1, 5)]
    d = make_q("commutative", gens)
    names = [g.name for g in gens]
    for _ in range(60):
        raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
        word, coeff = d.normalize_word(raw)
        again, c2 = d.normalize_word(word)
        assert again == word and (c2 == 1 or coeff == 0)
        if len(word) >= 2 and coeff:
            i = rng.randrange(len(word) - 1)
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            back, sign = d.normalize_word(swapped)
            parity = d.generators[word[i]].parity * d.generators[word[i + 1]].parity
            if word[i] == word[i + 1]:
                assert back == word and sign == 1
            else:
                assert back == word and sign == (-1 if parity else 1)


def koszul_reference(gens, word):
    """Bubble sort by (degree, link, name), flipping the sign at each swap of
    two odd letters; 0 once two equal odd letters sit side by side."""
    key = {g.name: (g.degree, 0 if g.link is None else g.link, g.name) for g in gens}
    odd = {g.name: g.degree % 2 for g in gens}
    letters, sign = list(word), 1
    for end in range(len(letters) - 1, 0, -1):
        for j in range(end):
            if key[letters[j]] > key[letters[j + 1]]:
                if odd[letters[j]] and odd[letters[j + 1]]:
                    sign = -sign
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
    if any(a == b and odd[a] for a, b in zip(letters, letters[1:])):
        sign = 0
    return tuple(letters), sign


@pytest.mark.parametrize("ring", [RING_Q, RING_QU])
def test_koszul_sign_matches_bubble_sort(ring):
    # ties in degree are broken by link (None counts as 0), then by name
    gens = [Generator("p", 1, link=2), Generator("q", 1, link=0), Generator("r", 1, link=0),
            Generator("s", 2, link=1), Generator("t", 3), Generator("u", 3, link=-1),
            Generator("v", 4, link=1)]
    d = DGA(ring, "commutative", gens)
    names = [g.name for g in gens]
    rng = seeded_rng(43)
    for _ in range(400):
        raw = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
        want, sign = koszul_reference(gens, raw)
        word, coeff = d.normalize_word(raw, 3)
        assert (word, coeff) == (want, 3 * sign), raw


# differential ---------------------------------------------------------------


def leibniz_dga():
    # d(xw) = (dx)w = ww = 0, so both terms of dz are cycles and d^2 = 0.
    gens = [Generator("w", 1), Generator("x", 2), Generator("y", 3), Generator("z", 4)]
    diff = {
        "x": AlgebraElement(RING_Q, {("w",): 1}),
        "z": AlgebraElement(RING_Q, {("y",): 1, ("w", "x"): Fraction(1, 2)}),
    }
    return make_q("commutative", gens, diff)


def test_leibniz_example():
    d = make_q(
        "commutative",
        [Generator("x", 1), Generator("y", 2), Generator("z", 2)],
        {"x": AlgebraElement(RING_Q, {("z",): 1})},
    )
    assert d.apply_differential(d.element({("x", "y"): 1})) == d.element({("y", "z"): 1})
    assert d.apply_differential(d.unit()).is_zero()


def test_leibniz_property_random():
    rng = seeded_rng(41)
    d = leibniz_dga()
    names = list(d.generators)
    for _ in range(200):
        w_raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        v_raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        w = d.element({w_raw: 1})
        v = d.element({v_raw: 1})
        if w.is_zero() or v.is_zero():
            continue
        lhs = d.apply_differential(multiply(d, w, v))
        sign = -1 if d.degree_of_word(w_raw) % 2 else 1
        rhs = multiply(d, d.apply_differential(w), v) + scaled(multiply(d, w, d.apply_differential(v)), sign)
        assert lhs == rhs


def test_u_linearity():
    d = load("orbit_qu.json")
    gamma = AlgebraElement(RING_QU, {("q",): UPoly.monomial(1)})
    assert d.apply_differential(gamma).is_zero()
    r_elem = AlgebraElement(RING_QU, {("r",): UPoly.monomial(2)})
    assert d.apply_differential(r_elem) == AlgebraElement(
        RING_QU, {("s",): UPoly.monomial(3)}
    )


def test_check_d_squared():
    good = leibniz_dga()
    assert good.check_d_squared() == []
    bad = make_q(
        "commutative",
        [Generator("a", 2), Generator("b", 1)],
        {
            "a": AlgebraElement(RING_Q, {("b",): 1}),
            "b": AlgebraElement(RING_Q, {("a",): 1}),
        },
    )
    residues = {name: str(r) for name, r in bad.check_d_squared()}
    assert residues["a"] == "(1)*a"
    assert make_q("commutative", []).check_d_squared() == []


def test_stored_examples_pass_checks():
    for name in ("orbit_qu.json", "legendrian_q.json", "exact_pair.json", "acyclic_unit.json"):
        algebra = load(name)
        assert algebra.check_d_squared() == []
    for name in ("orbit_qu.json", "legendrian_q.json"):
        assert load(name).check_bidegree() == []


def test_bidegree_violation_detected():
    d = make_q(
        "commutative",
        [Generator("a", 3, link=1), Generator("b", 1, link=1)],
        {"a": AlgebraElement(RING_Q, {("b",): 1})},
    )
    assert d.check_bidegree()  # degree drops by 2


# augmentation and linearization ----------------------------------------------


def test_zero_augmentation_criterion():
    bad = make_q(
        "commutative",
        [Generator("x", 1), Generator("y", 0)],
        {"x": AlgebraElement(RING_Q, {("y",): 1, (): 3})},
    )
    with pytest.raises(NotAChainMap) as err:
        augment(bad)
    assert err.value.generator == "x"
    good = make_q(
        "commutative",
        [Generator("x", 1), Generator("y", 0)],
        {"x": AlgebraElement(RING_Q, {("y",): 1})},
    )
    augment(good)


def test_augmentation_on_cancelling_differential():
    d = make_q(
        "commutative",
        [Generator("x", 1), Generator("y", 0)],
        {"x": AlgebraElement(RING_Q, {("y",): 1, ("y",): 1}) - AlgebraElement(RING_Q, {("y",): 1})},
    )
    augment(d, {"y": Fraction(5)})


def test_augmentation_must_sit_in_degree_zero():
    d = make_q("commutative", [Generator("x", 1)])
    with pytest.raises(ValueError):
        augment(d, {"x": 1})


def test_linearize_examples():
    base = [Generator("x", 2), Generator("y", 1), Generator("z", 0)]
    quadratic = make_q(
        "commutative",
        base,
        {"x": AlgebraElement(RING_Q, {("y",): 1, ("y", "z"): 1})},
    )
    cx0 = linearize(quadratic, augment(quadratic))
    assert cx0.boundary[2] == ExactMatrix(RING_Q, [[1]])
    cx1 = linearize(quadratic, augment(quadratic, {"z": 1}))
    assert cx1.boundary[2] == ExactMatrix(RING_Q, [[2]])
    silent = make_q("commutative", base)
    cx2 = linearize(silent, augment(silent))
    assert not cx2.boundary


def test_linearize_zero_aug_extracts_linear_terms():
    d = leibniz_dga()
    cx = linearize(d, augment(d))
    for name, g in d.generators.items():
        image = d.d_of_generator(name)
        linear = {w[0]: c for w, c in image.terms.items() if len(w) == 1}
        col = cx.basis[g.degree].index(name)
        for target, c in linear.items():
            row = cx.basis[g.degree - 1].index(target)
            assert cx.boundary[g.degree][row, col] == c


# homology --------------------------------------------------------------------


def test_linearized_homology_over_qu():
    # d(p) = U q + r s and d(r) = U s linearize (at zero) to multiplication
    # by U in two spots, leaving pure U-torsion in degrees 3 and 1.
    d = load("orbit_qu.json")
    cx = linearize(d, augment(d))
    summary = homology(cx, 1, 4)
    assert summary[4] == (0, ())
    assert summary[2] == (0, ())
    assert summary[3].free_rank == 0
    assert [str(t) for t in summary[3].torsion] == ["U"]
    assert summary[1].free_rank == 0
    assert [str(t) for t in summary[1].torsion] == ["U"]


def test_homology_torsion_example():
    cx = ChainComplex(
        RING_QU,
        {0: ("e0",), 1: ("e1",)},
        {1: ExactMatrix(RING_QU, [[UPoly.monomial(1)]])},
    )
    summary = homology(cx, 0, 1)
    assert summary[1] == (0, ())
    assert summary[0].free_rank == 0
    assert [str(t) for t in summary[0].torsion] == ["U"]


def test_u_exact_pair_homology_is_fast():
    # da = U*b: every torsion factor is U.  The Euclidean Smith form over
    # Fractions took 10 s for this window, one Smith form per boundary.
    u = UPoly.monomial(1)
    pair = DGA(RING_QU, MODE_ASSOCIATIVE, [Generator("a", 2), Generator("b", 1)],
               {"a": AlgebraElement(RING_QU, {("b",): u})})
    start = time.perf_counter()
    summary = homology(cyclic_complex(pair, 0, 16), 0, 16)
    assert time.perf_counter() - start < 5
    torsion = [t for k in summary for t in summary[k].torsion]
    assert len(torsion) > 10 and all(t == u for t in torsion)
    assert all(summary[k].free_rank == 0 for k in summary)


def test_homology_torsion_not_a_power_of_u():
    d = load("torsion_qu.json")
    summary = homology(word_complex(d, 0, 4), 0, 3)
    assert [str(t) for t in summary[1].torsion] == ["U^2 - 1"]
    assert [str(t) for t in summary[3].torsion] == ["U^2 - 1", "U^3 + 2/3*U^2 - U - 2/3"]


def test_word_complex_unit_survives():
    d = make_q(
        "commutative",
        [Generator("a", 2), Generator("b", 1)],
        {"a": AlgebraElement(RING_Q, {("b",): 1})},
    )
    summary = homology(word_complex(d, 0, 7), 0, 6)
    assert summary[0].free_rank == 1
    assert all(summary[k].free_rank == 0 for k in range(1, 7))


def test_word_complex_over_several_components_refuses_degree_0():
    # over one idempotent per component, degree 0 of the base is not one empty
    # word, so a window holding degree 0 is refused and one above it is not
    x, y = Generator("x", 1, kind=("chord", 0, 0)), Generator("y", 1, kind=("chord", 1, 1))
    unit = AlgebraElement(RING_Q, {(): 1})
    d = make_q(MODE_ASSOCIATIVE, [x, y], {"x": unit, "y": unit}, components=2)
    for lo, hi in ((0, 0), (0, 3)):
        with pytest.raises(NotSupported, match="over 2 components"):
            word_complex(d, lo, hi)
    summary = homology(word_complex(d, 1, 4), 2, 3)
    assert summary == {2: (0, ()), 3: (0, ())}
    one = make_q(MODE_ASSOCIATIVE, [x], {"x": unit})
    assert homology(word_complex(one, 0, 2), 0, 1) == {0: (0, ()), 1: (0, ())}


@pytest.mark.parametrize("field, where", [
    ("deg", lambda doc: doc["generators"][0]),
    ("link", lambda doc: doc["generators"][0]),
    ("upow", lambda doc: doc["differential"]["a"][0]),
    ("components", lambda doc: doc),
], ids=["deg", "link", "upow", "components"])
@pytest.mark.parametrize("value", [1.5, 2.0, float("inf")], ids=["fraction", "2.0", "inf"])
def test_document_refuses_non_integral_numbers(field, where, value):
    # every count, degree and exponent must be a JSON integer: 1.5 was read
    # as 1, and 2.0 is refused alike rather than rounded
    doc = {"ring": "QU", "mode": "commutative", "components": 1,
           "generators": [{"name": "a", "deg": 2, "link": 1}, {"name": "b", "deg": 1, "link": 1}],
           "differential": {"a": [{"coeff": "1", "upow": 0, "word": ["b"]}]}}
    dga_from_doc(doc)
    where(doc)[field] = value
    with pytest.raises(ValueError, match="malformed algebra document: 'float' object cannot"):
        dga_from_doc(doc)


def test_word_basis_counts():
    d = make_q("commutative", [Generator("a", 2), Generator("b", 1)])
    assert word_basis(d, 0) == ((),)
    assert word_basis(d, 2) == (("a",),)  # bb dies: b odd
    assert word_basis(d, 3) == (("b", "a"),)  # canonical order: degree first
    assoc = DGA(RING_Q, "associative", [Generator("a", 2), Generator("b", 1)])
    assert set(word_basis(assoc, 3)) == {("a", "b"), ("b", "a"), ("b", "b", "b")}


def random_qu_complex(rng):
    """A two-step complex over Q[U] with certified d . d = 0."""
    from sftkit.ring import smith_normal_form

    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    a = ExactMatrix(RING_QU, [
        [UPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]) for _ in range(n2)]
        for _ in range(n1)
    ])
    snf = smith_normal_form(a)
    r = len(snf.factors)
    kernel_cols = [
        [snf.right.rows[i][j] for j in range(r, n2)] for i in range(n2)
    ]
    if not kernel_cols or not kernel_cols[0]:
        return None
    b = ExactMatrix(RING_QU, kernel_cols)
    cx = ChainComplex(
        RING_QU,
        {0: tuple(range(n1)), 1: tuple(range(n2)), 2: tuple(range(b.ncols))},
        {k: m for k, m in ((1, a), (2, b)) if m.ncols and m.nrows},
    )
    return cx.verify()


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32))
def test_homology_matches_reference_over_qu(seed):
    cx = random_qu_complex(random.Random(seed))
    if cx is not None:
        assert homology(cx, 0, 2) == reference_homology(cx, 0, 2)


@st.composite
def closed_exact_algebras(draw, mode="associative"):
    """Q-algebras of the given mode with d^2 = 0: closed generators c_i
    (d c_i = 0) and generators e_j whose differential is a random combination
    of words in the c_i, the empty word included."""
    closed = [Generator(f"c{i}", draw(st.integers(1, 3)))
              for i in range(draw(st.integers(1, 3)))]
    words = DGA(RING_Q, mode, closed)
    gens, diff = list(closed), {}
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    for j in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 4))
        gens.append(Generator(f"e{j}", deg))
        terms = {w: draw(coeff) for w in word_basis(words, deg - 1) if draw(st.booleans())}
        diff[f"e{j}"] = AlgebraElement(RING_Q, terms)
    return DGA(RING_Q, mode, gens, diff)


@settings(deadline=None, max_examples=40)
@given(closed_exact_algebras(), st.integers(1, 5))
def test_homology_matches_reference_over_q(algebra, hi):
    try:
        complexes = (word_complex(algebra, 0, hi + 1), cyclic_complex(algebra, 0, hi))
    except TooLarge:
        # up to six degree-1 generators give 6^6 words in degree 6, past
        # BASIS_LIMIT, which test_cyclic.py checks is refused
        assume(False)
    for cx in complexes:
        assert homology(cx, 0, hi) == reference_homology(cx, 0, hi)


@settings(deadline=None, max_examples=60)
@given(closed_exact_algebras("commutative"), st.integers(1, 6))
def test_commutative_cyclic_boundaries_match_reference_projection(algebra, hi):
    # Each term of the word differential, constants dropped, is carried to
    # its class by the reference rotate-and-normalize projection.
    try:
        cx = cyclic_complex(algebra, 0, hi)
    except TooLarge:
        assume(False)
    basis = helpers.cyclic_basis(algebra, 0, hi + 1)
    assert cx.basis == basis
    for k in range(1, hi + 2):
        index = {w: i for i, w in enumerate(basis[k - 1])}
        want = [[Fraction(0)] * len(basis[k]) for _ in basis[k - 1]]
        for j, col in enumerate(basis[k]):
            image = algebra.apply_differential(AlgebraElement(RING_Q, {col: 1}))
            for word, coeff in image.terms.items():
                projected = helpers.project_word(algebra, word, coeff) if word else None
                if projected is not None:
                    want[index[projected[0]]][j] += projected[1]
        got = [list(row) for row in cx.boundary[k].rows] if k in cx.boundary else None
        assert got == want or (got is None and not any(map(any, want)))


def test_homology_refuses_nonzero_d_squared():
    doc = json.loads((DATA / "broken.json").read_text())
    for ring in (RING_Q, RING_QU):
        # d(a) = b and d(b) = 1, so d_1 d_2 != 0 and d_2 d_3 (ba -> a -> b) != 0;
        # the window 2..2 reads d_2 and d_3 only
        cx = word_complex(dga_from_doc({**doc, "ring": ring}), 0, 3)
        for lo, hi in ((0, 2), (2, 2)):
            with pytest.raises(DSquareNonzero):
                homology(cx, lo, hi)


def test_word_basis_refuses_words_past_the_length_limit():
    d = DGA(RING_Q, "associative", [Generator("x", 1)])
    assert word_basis(d, 500) == (("x",) * 500,)
    with pytest.raises(TooLarge, match="length 501"):
        word_basis(d, 501)


def test_specialization_consistency():
    rng = seeded_rng(42)
    s = Fraction(17)  # generic: no torsion factor of interest vanishes here
    done = 0
    while done < 30:
        cx = random_qu_complex(rng)
        if cx is None:
            continue
        over_qu = homology(cx, 0, 2)
        ev = ChainComplex(
            RING_Q,
            cx.basis,
            {k: evaluate(m, s) for k, m in cx.boundary.items()},
        )
        over_q = homology(ev, 0, 2)
        for k in range(0, 3):
            vanish_here = sum(1 for t in over_qu[k].torsion if t.evaluate(s) == 0)
            vanish_below = (
                sum(1 for t in over_qu[k - 1].torsion if t.evaluate(s) == 0)
                if k - 1 in over_qu
                else 0
            )
            # universal coefficients for the quotient by (U - s)
            assert over_q[k].free_rank == over_qu[k].free_rank + vanish_here + vanish_below
            assert over_q[k].free_rank >= over_qu[k].free_rank
        done += 1


def test_evaluate_u():
    poly = UPoly.monomial(2) + 1
    assert poly.evaluate(1) == 2
    d = load("orbit_qu.json")
    at_zero = d.evaluate_U(0)
    # strictly positive powers of U drop at 0
    assert at_zero.d_of_generator("r").is_zero()
    assert at_zero.d_of_generator("p") == at_zero.element({("r", "s"): 1})
    at_one = d.evaluate_U(1)
    assert at_one.d_of_generator("p") == at_one.element({("q",): 1, ("r", "s"): 1})
    assert at_one.check_d_squared() == []


def test_document_roundtrip():
    for name in ("orbit_qu.json", "legendrian_q.json", "broken.json"):
        doc = json.loads((DATA / name).read_text())
        algebra = dga_from_doc(doc)
        again = dga_from_doc(dga_to_doc(algebra))
        assert dga_to_doc(again) == dga_to_doc(algebra)


def test_bad_generators_rejected():
    with pytest.raises(ValueError):
        make_q("commutative", [Generator("g", 2, good=False)])
