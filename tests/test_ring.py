"""Exact arithmetic and normal form tests.

The Smith form is checked against independent oracles: the product of the
first k invariant factors must equal the monic gcd of all k x k minors,
computed by brute-force cofactor determinants; the original Euclidean loop
(``helpers.reference_smith_normal_form``) and sympy's invariant factors over
QQ[U] must give the same factors.
"""

import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (dense_matmul, dense_rank_q, det, evaluate, leading, monic, poly_divmod,
                     poly_gcd, rank, reference_smith_normal_form, seeded_rng)
import sftkit.ring as ring_mod
from sftkit.dga import AlgebraElement
from sftkit.ring import (
    RING_Q,
    RING_QU,
    ExactMatrix,
    UPoly,
    _rank_and_torsion,
    _rank_q,
    coerce,
    one,
    parse_upoly,
    smith_normal_form,
    zero,
)

U = UPoly.monomial(1)


def minor_gcd_oracle(m: ExactMatrix, k: int) -> UPoly:
    """Monic gcd of all k x k minors (zero polynomial if all vanish)."""
    acc = UPoly()
    for rows in itertools.combinations(range(m.nrows), k):
        for cols in itertools.combinations(range(m.ncols), k):
            sub = ExactMatrix(m.ring, [[m[i, j] for j in cols] for i in rows])
            acc = poly_gcd(acc, det(sub))
    return acc


def random_qu_matrix(rng, nrows, ncols, max_deg=2) -> ExactMatrix:
    return ExactMatrix(RING_QU, [
        [UPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, max_deg + 1))])
         for _ in range(ncols)]
        for _ in range(nrows)
    ])


def test_poly_examples():
    assert (U + 1) * (U - 1) == U ** 2 - 1
    p = 3 * U ** 2 + Fraction(1, 2)
    assert UPoly() + p == p
    assert (2 * U) * UPoly.const(Fraction(1, 2)) == U


def test_poly_parsing_roundtrip():
    for text in ("U^2 - 1", "2*U^2 - U + 1/2", "-U", "7"):
        p = parse_upoly(text)
        assert parse_upoly(str(p)) == p


def test_poly_divmod():
    q, r = poly_divmod(U ** 3 + U + 1, U ** 2 + 1)
    assert q == U and r == UPoly.const(1)
    assert poly_gcd(U ** 2 - 1, U ** 2 - 2 * U + 1) == U - 1


def test_smith_scalar_over_q():
    res = smith_normal_form(ExactMatrix(RING_Q, [[2]]))
    assert list(res.factors) == [Fraction(1)]


def test_smith_diagonal_divisible():
    m = ExactMatrix(RING_QU, [[U, 0], [0, U ** 2]])
    res = smith_normal_form(m)
    assert list(res.factors) == [U, U ** 2]
    assert res.verify(m)


def test_smith_shear_block():
    # Hand row reduction: swap in the unit, clear, leaving diag(1, U^2);
    # the determinant U^2 is preserved up to units.
    m = ExactMatrix(RING_QU, [[U, 1], [0, U]])
    res = smith_normal_form(m)
    assert list(res.factors) == [UPoly.const(1), U ** 2]
    assert res.verify(m)
    assert monic(det(m)) == monic(res.factors[0] * res.factors[1])


def test_smith_transforms_are_certified():
    rng = seeded_rng(1)
    for _ in range(25):
        m = random_qu_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        res = smith_normal_form(m)
        assert res.verify(m)
        assert (res.left @ res.left_inverse) == ExactMatrix.identity(RING_QU, m.nrows)
        assert (res.right @ res.right_inverse) == ExactMatrix.identity(RING_QU, m.ncols)
        for a, b in zip(res.factors, res.factors[1:]):
            assert poly_divmod(b, a)[1].is_zero()


def test_smith_matches_minor_gcd_oracle_3x3():
    rng = seeded_rng(2)
    for _ in range(40):
        m = random_qu_matrix(rng, 3, 3)
        res = smith_normal_form(m)
        product = UPoly.const(1)
        for k, f in enumerate(res.factors, start=1):
            product = product * f
            assert monic(product) == minor_gcd_oracle(m, k)
        if len(res.factors) < 3:
            assert minor_gcd_oracle(m, len(res.factors) + 1).is_zero()


def test_smith_over_q_factors_are_units():
    rng = seeded_rng(3)
    for _ in range(20):
        m = ExactMatrix(RING_Q, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(3)] for _ in range(3)])
        res = smith_normal_form(m)
        assert all(f == 1 for f in res.factors)
        assert res.verify(m)


def test_smith_edge_shapes():
    zero = ExactMatrix(RING_QU, [[UPoly(), UPoly()], [UPoly(), UPoly()]])
    res = smith_normal_form(zero)
    assert res.factors == () and res.verify(zero)
    empty = ExactMatrix(RING_QU, [])
    assert smith_normal_form(empty).factors == ()
    rng = seeded_rng(4)
    for nrows, ncols in ((1, 4), (4, 1), (2, 5), (5, 2)):
        for _ in range(10):
            m = random_qu_matrix(rng, nrows, ncols)
            res = smith_normal_form(m)
            assert res.verify(m)
            assert len(res.factors) == rank(m)
            for k, f in enumerate(res.factors, start=1):
                prod = UPoly.const(1)
                for g in res.factors[:k]:
                    prod = prod * g
                assert monic(prod) == minor_gcd_oracle(m, k)


@given(st.fractions(), st.fractions())
def test_rational_addition_exact(a, b):
    assert (a + b) - b == a


upolys = st.builds(
    UPoly, st.lists(st.fractions(max_denominator=50), max_size=5)
)


@given(upolys, upolys, upolys)
def test_upoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if not b.is_zero():
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


@given(upolys)
def test_upoly_pickle_roundtrip(p):
    back = pickle.loads(pickle.dumps(p))
    assert back == p and back.coeffs == p.coeffs
    assert pickle.loads(pickle.dumps(UPoly([1, 2]))) == 2 * U + 1


@pytest.mark.parametrize("m", [
    ExactMatrix(RING_Q, [[1, 2], [3, 4]]),
    ExactMatrix(RING_Q, [[Fraction(-1, 3), 0, 5]]),
    ExactMatrix(RING_QU, [[U, 1], [U ** 2 - Fraction(2, 3), 0]]),
    ExactMatrix(RING_Q, []),
    ExactMatrix(RING_QU, []),
])
def test_exact_matrix_pickle_roundtrip(m):
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.rows == m.rows
    assert (back.ring, back.nrows, back.ncols) == (m.ring, m.nrows, m.ncols)


@st.composite
def sparse_matrices(draw, ring=None, shape=None):
    """Up to 6 x 6 matrices over Q or Q[U], about half their cells zero."""
    ring = ring or draw(st.sampled_from([RING_Q, RING_QU]))
    nrows, ncols = shape or (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=3) if ring == RING_Q else upolys
    return ExactMatrix(ring, [[draw(entry) if draw(st.booleans()) else 0 for _ in range(ncols)]
                              for _ in range(nrows)])


@given(sparse_matrices())
def test_dense_and_sparse_construction_agree(m):
    trusted = ExactMatrix._from_entries(
        m.ring, [{j: x for j, x in enumerate(row) if x} for row in m.rows], m.ncols)
    assert trusted.rows == m.rows and trusted.entries == m.entries
    assert trusted == m and hash(trusted) == hash(m)
    back = pickle.loads(pickle.dumps(trusted))
    assert back == m and back.rows == m.rows and (back.nrows, back.ncols) == (m.nrows, m.ncols)
    assert all(x for line in m.entries for x in line.values())


@given(st.data(), st.sampled_from([RING_Q, RING_QU]), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5))
def test_matmul_matches_dense_reference(data, ring, n, k, p):
    # a matrix without rows has no columns (ExactMatrix(ring, []) is 0 x 0)
    a = data.draw(sparse_matrices(ring, (n, k)))
    b = data.draw(sparse_matrices(ring, (k, p)))
    product = a @ b
    assert product == dense_matmul(a, b)
    assert product.rows == dense_matmul(a, b).rows


def test_rank_and_evaluate():
    m = ExactMatrix(RING_QU, [[U, 1], [U ** 2, U]])
    assert rank(m) == 1
    assert evaluate(m, Fraction(2)) == ExactMatrix(RING_Q, [[2, 1], [4, 2]])


@pytest.mark.parametrize("ring, x, want", [
    (RING_Q, 3, Fraction(3)),
    (RING_Q, "-3/4", Fraction(-3, 4)),
    (RING_Q, Fraction(1, 2), Fraction(1, 2)),
    (RING_Q, UPoly.const(5), Fraction(5)),
    (RING_Q, U + 1, ValueError),
    (RING_Q, 0.5, TypeError),
    (RING_QU, 3, UPoly.const(3)),
    (RING_QU, "-3/4", UPoly.const(Fraction(-3, 4))),
    (RING_QU, Fraction(1, 2), UPoly.const(Fraction(1, 2))),
    (RING_QU, UPoly.const(5), UPoly.const(5)),
    (RING_QU, U + 1, U + 1),
    (RING_QU, 0.5, TypeError),
    ("Z", 1, ValueError),
])
def test_coerce_one_rule_per_ring(ring, x, want):
    if isinstance(want, type):
        with pytest.raises(want):
            coerce(ring, x)
    else:
        got = coerce(ring, x)
        assert got == want and type(got) is type(want)


def test_coercion_is_shared_by_matrices_and_algebra_elements():
    # rational strings are Q[U] coefficients in matrices as in algebra elements
    assert ExactMatrix(RING_QU, [["1/2"]]).rows == ((UPoly.const(Fraction(1, 2)),),)
    assert zero(RING_QU) == UPoly() and one(RING_Q) == 1
    with pytest.raises(ValueError, match="unknown ring tag 'Z'"):
        AlgebraElement("Z", {("a",): 1})


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(RING_Q, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(RING_Q, [[U + 1]])


@st.composite
def rational_matrices(draw):
    """Up to 8 x 8 rationals with denominators up to 10^6, sparse or dense,
    then some rows replaced by scaled copies of others and some rows and
    columns zeroed."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    fill = draw(st.sampled_from([15, 50, 100]))  # percent of nonzero cells
    entry = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
    rows = [[draw(entry) if draw(st.integers(0, 99)) < fill else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]
    edits = st.tuples(st.sampled_from(["copy", "zero_row", "zero_col"]),
                      st.integers(0, 7), st.integers(0, 7),
                      st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    for op, i, j, scale in draw(st.lists(edits, max_size=4)):
        if op == "copy" and nrows:
            rows[i % nrows] = [scale * x for x in rows[j % nrows]]
        elif op == "zero_row" and nrows:
            rows[i % nrows] = [Fraction(0)] * ncols
        elif op == "zero_col" and ncols:
            for row in rows:
                row[j % ncols] = Fraction(0)
    return rows


@settings(deadline=None)
@given(rational_matrices())
def test_rank_q_matches_dense_reference_and_sympy(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    want = dense_rank_q(rows)
    assert _rank_q(ExactMatrix(RING_Q, rows).entries) == want
    if rows and rows[0]:
        dm = DomainMatrix([[QQ(x.numerator, x.denominator) for x in r] for r in rows],
                          (len(rows), len(rows[0])), QQ)
        assert dm.rank() == want
    else:
        assert want == 0


def test_constant_upoly_hashes_like_its_constant():
    assert len({UPoly.const(2), 2, Fraction(2)}) == 1
    assert len({UPoly(), 0, Fraction(0)}) == 1
    assert len({UPoly.const(Fraction(1, 2)), Fraction(1, 2), U, U + 1}) == 3
    table = {2: "two", Fraction(1, 3): "third", U: "U"}
    assert table[UPoly.const(2)] == "two"
    assert table[UPoly.const(Fraction(1, 3))] == "third"
    assert table[UPoly.monomial(1)] == "U"
    table[UPoly()] = "zero"
    assert table[0] == "zero" and table[Fraction(0)] == "zero"


@st.composite
def smith_inputs(draw):
    """Matrices over Q or Q[U] up to 5 x 5: coefficients in [-3, 3] with
    denominators up to 10^3, entries of degree <= 2 over Q[U], sparse, dense
    or diagonal, with some rows and columns zeroed.  Over Q[U] the entries
    of diagonal matrices, and of some matrices up to 3 x 3, are all
    nonconstant.  Dense matrices stop at 4 x 4 and nonconstant nondiagonal
    ones at 3 x 3: beyond that both Euclidean Smith forms (the kernel and
    the reference) blow up their coefficients, while sympy stays fast."""
    ring = draw(st.sampled_from([RING_Q, RING_QU]))
    # nonzero on the diagonal only, or a percent of nonzero cells
    fill = draw(st.sampled_from(["diagonal", 30, 60, 100]))
    side = st.integers(2 if fill == "diagonal" else 0, 4 if fill == 100 else 5)
    nrows, ncols = draw(side), draw(side)
    big = max(nrows, ncols)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=1000)
    if ring == RING_Q:
        entry = coeff
    else:
        # 2 coefficients at least: nonconstant entries, so that no unit pivot
        # hides a failed divisibility
        lowest = 2 if fill == "diagonal" or (big <= 3 and draw(st.booleans())) else 1
        entry = st.builds(UPoly, st.lists(coeff, min_size=lowest, max_size=3))
    rows = [[draw(entry) if (i == j if fill == "diagonal" else draw(st.integers(0, 99)) < fill)
             else 0 for j in range(ncols)] for i in range(nrows)]
    for i in draw(st.lists(st.integers(0, 4), max_size=2)):
        if nrows:
            rows[i % nrows] = [0] * ncols
    for j in draw(st.lists(st.integers(0, 4), max_size=2)):
        if ncols:
            for row in rows:
                row[j % ncols] = 0
    return ExactMatrix(ring, rows)


def sympy_factors(m: ExactMatrix) -> tuple:
    """Nonzero invariant factors from sympy over QQ[U], monic, as sftkit values."""
    from sympy import QQ, symbols
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    if not m.nrows or not m.ncols:
        return ()
    qu = QQ[symbols("U")]
    poly = (lambda x: [x]) if m.ring == RING_Q else (lambda x: x.coeffs)
    dm = DomainMatrix([[qu.ring.from_list([QQ(c.numerator, c.denominator)
                                           for c in reversed(poly(x))]) if x else qu.zero
                        for x in row] for row in m.rows], (m.nrows, m.ncols), qu)
    out = []
    for f in invariant_factors(dm):
        if f:
            coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.to_dense())]
            out.append(UPoly([c / coeffs[-1] for c in coeffs]))
    return tuple(f.coeffs[0] if m.ring == RING_Q else f for f in out)


@settings(deadline=None, max_examples=150)
@given(smith_inputs())
def test_smith_kernel_matches_reference_and_sympy(m):
    res = smith_normal_form(m)
    assert res.factors == reference_smith_normal_form(m).factors
    assert res.factors == sympy_factors(m)
    with pytest.MonkeyPatch.context() as patch:  # and builds no transform
        patch.setattr(ring_mod, "_Transform", None)
        assert _rank_and_torsion(m) == (len(res.factors), tuple(
            f for f in res.factors if m.ring != RING_Q and f.degree > 0))
    if m.ring == RING_Q:
        assert all(type(f) is Fraction and f == 1 for f in res.factors)
    else:
        assert all(leading(f) == 1 for f in res.factors)
        for a, b in zip(res.factors, res.factors[1:]):
            assert poly_divmod(b, a)[1].is_zero()
    assert res.diagonal.rows == tuple(
        tuple(res.factors[i] if i == j and i < len(res.factors) else zero(m.ring)
              for j in range(m.ncols)) for i in range(m.nrows))
    assert res.verify(m)
    assert res.left @ res.left_inverse == ExactMatrix.identity(m.ring, m.nrows)
    assert res.right @ res.right_inverse == ExactMatrix.identity(m.ring, m.ncols)


def benchmark_qu_matrix(rng: random.Random, size: int) -> ExactMatrix:
    """The random square matrices of the benchmark's Smith batch: each entry
    has 1-3 coefficients uniform in [-3, 3]."""
    return ExactMatrix(RING_QU, [[UPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                                  for _ in range(size)] for _ in range(size)])


def test_smith_5x5_worst_case_is_certified_quickly():
    # the Euclidean loop over Fractions took 3.6 s here, with 28 681-bit
    # coefficients in its transforms
    m = benchmark_qu_matrix(random.Random(2), 5)
    start = time.perf_counter()
    res = smith_normal_form(m)
    assert res.verify(m)
    assert time.perf_counter() - start < 5
    assert res.factors == sympy_factors(m)


def test_rat_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        coerce(RING_Q, "3/0")


# The inverses of L and R are built on first read, by a second elimination.


def test_smith_normal_form_does_no_inverse_work(monkeypatch):
    # _reduced is the last step of every update of an inverse line, and
    # nothing else calls it
    updates = []
    reduced = ring_mod._reduced
    monkeypatch.setattr(ring_mod, "_reduced",
                        lambda line, den: updates.append(den) or reduced(line, den))
    m = benchmark_qu_matrix(random.Random(2), 5)
    res = smith_normal_form(m)
    assert updates == []
    # the rebuild goes through the private kernel, not the public name
    monkeypatch.setattr(ring_mod, "smith_normal_form", None)
    assert res.left @ res.left_inverse == ExactMatrix.identity(RING_QU, 5)
    assert updates


def test_smith_inverses_are_cached_and_leave_the_form_alone():
    m = benchmark_qu_matrix(random.Random(2), 5)
    res = smith_normal_form(m)
    before = (res.factors, res.diagonal, res.left, res.right)
    left_inverse, right_inverse = res.left_inverse, res.right_inverse
    assert res.left_inverse is left_inverse and res.right_inverse is right_inverse
    assert all(x is y for x, y in zip((res.factors, res.diagonal, res.left, res.right), before))
    fresh = smith_normal_form(m)
    assert (fresh.factors, fresh.diagonal, fresh.left, fresh.right) == before


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_smith_result_pickle_roundtrip(read_first):
    m = benchmark_qu_matrix(random.Random(2), 4)
    res = smith_normal_form(m)
    if read_first:
        res.left_inverse
    back = pickle.loads(pickle.dumps(res))
    assert (back.factors, back.diagonal, back.left, back.right) == (
        res.factors, res.diagonal, res.left, res.right)
    assert (back.left_inverse, back.right_inverse) == (res.left_inverse, res.right_inverse)


@pytest.mark.parametrize("m", [
    ExactMatrix(RING_QU, []),
    ExactMatrix(RING_QU, [[0, 0, 0], [0, 0, 0]]),
    random_qu_matrix(seeded_rng(5), 1, 4),
    random_qu_matrix(seeded_rng(6), 4, 1),
    ExactMatrix(RING_Q, [[Fraction(1, 2), 3, 0], [2, Fraction(-5, 3), 1], [0, 4, Fraction(7, 2)]]),
    benchmark_qu_matrix(random.Random(2), 5),
], ids=["0x0", "all-zero", "1x4", "4x1", "Q", "benchmark-5x5"])
def test_smith_inverses_invert_the_stored_transforms(m):
    res = smith_normal_form(m)
    assert res.verify(m)
    assert res.left @ res.left_inverse == ExactMatrix.identity(m.ring, m.nrows)
    assert res.right @ res.right_inverse == ExactMatrix.identity(m.ring, m.ncols)
    assert res.left_inverse @ res.left == ExactMatrix.identity(m.ring, m.nrows)
    assert res.right_inverse @ res.right == ExactMatrix.identity(m.ring, m.ncols)
