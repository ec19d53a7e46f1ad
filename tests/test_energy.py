import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_exp_scaled_compare, seeded_rng
from sftkit.energy import (
    _PRECISIONS,
    TypeADecomposition,
    _exp_bounds,
    TypeBDecomposition,
    admissible,
    exp_scaled_compare,
    glue_energy,
    type_a_energy,
    type_b_energy,
)
from sftkit.errors import (
    BoundaryConditionViolated,
    NotSupported,
    UnresolvedComparison,
)


def test_type_a_energy():
    assert type_a_energy(TypeADecomposition(Fraction(7, 10), Fraction(1, 2))) == Fraction(6, 5)
    assert type_a_energy(TypeADecomposition(0, 0)) == 0  # symplectization floor
    assert type_a_energy(TypeADecomposition(0, 5, empty_negative_end=True)) == float("-inf")
    with pytest.raises(ValueError):
        TypeADecomposition(1, 0, empty_negative_end=True)


def test_type_b_energy_constant_samples():
    d = TypeBDecomposition([(0, 0.5, 0, 0, 0.5), (1, 0.5, 0, 0, 0.5)])
    res = type_b_energy(d)
    assert res.energy == 1.0
    assert res.induced_at_zero == 1.0


def test_type_b_boundary_condition():
    with pytest.raises(BoundaryConditionViolated):
        type_b_energy(TypeBDecomposition([(0, 0.5, 0.3, 0.0, 0.5)]))


def test_type_b_induced_bounded_by_total():
    rng = seeded_rng(30)
    for _ in range(100):
        c1_zero = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        rows = [(0, Fraction(rng.randint(0, 5)), c1_zero, -c1_zero, Fraction(rng.randint(0, 5)))]
        for t in range(1, rng.randint(2, 6)):
            rows.append(tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 3))
                              for _ in range(5)))
            rows[-1] = (t,) + rows[-1][1:]
        res = type_b_energy(TypeBDecomposition(rows))
        assert res.induced_at_zero <= res.energy
        assert res.induced_at_infinity <= res.energy


def test_glue_energy():
    assert glue_energy(Fraction(3, 10), Fraction(2, 5), True) == Fraction(7, 10)
    assert glue_energy(0, 5, True) == 5
    with pytest.raises(NotSupported):
        glue_energy(0.3, 0.4, False)


def test_admissible_examples():
    assert admissible(2, 1, Fraction(1, 2)) is True          # 2 > e^0.5
    assert admissible(Fraction(3, 2), 1, 1) is False         # 1.5 < e
    assert admissible(1, 1, 0, relaxed=True) is True
    assert admissible(5, 0, 1000) is True                    # empty submanifold


def test_admissible_negative_energy():
    assert admissible(1, 1, -1) is True            # 1 > e^-1
    assert admissible(Fraction(1, 4), 1, -1) is False
    # a filling's energy is unbounded below; anything clears the gate
    assert admissible(Fraction(1, 1000), 1, float("-inf")) is True


def test_admissible_zero_energy_is_exact():
    eps = Fraction(1, 10 ** 14)
    assert admissible(1 + eps, 1, 0) is True
    assert admissible(1, 1 + eps, 0) is False


def test_admissible_refuses_knife_edge():
    # r+ agreeing with e^1 to ~1e-16 cannot be safely compared strictly.
    r_plus = Fraction(mpmath.nstr(mpmath.exp(1), 30)).limit_denominator(10 ** 15)
    with pytest.raises(UnresolvedComparison):
        admissible(r_plus, 1, 1)


def test_exp_compare_scaled():
    assert exp_scaled_compare(4, 2, 0, 1, strict=False) is True    # 4 >= 2
    assert exp_scaled_compare(2, 2, 0, 1, strict=False) is True    # equality allowed
    assert exp_scaled_compare(2, 2, 0, 1, strict=True) is False


def test_admissibility_composes_across_symplectization_gluing():
    rng = seeded_rng(31)
    checked = 0
    while checked < 300:
        r_plus = Fraction(rng.randint(1, 400), rng.randint(1, 20))
        r_mid = Fraction(rng.randint(1, 200), rng.randint(1, 20))
        r_minus = Fraction(rng.randint(0, 100), rng.randint(1, 20))
        e1 = Fraction(rng.randint(0, 20), 10)
        e2 = Fraction(rng.randint(0, 20), 10)
        try:
            first = admissible(r_plus, r_mid, e1)
            second = admissible(r_mid, r_minus, e2)
            if first and second:
                glued = glue_energy(e1, e2, True)
                assert admissible(r_plus, r_minus, glued) is True
                checked += 1
        except UnresolvedComparison:
            continue


def test_admissible_matches_float_heuristic_away_from_edges():
    rng = seeded_rng(32)
    for _ in range(200):
        r_plus = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        r_minus = Fraction(rng.randint(0, 50), rng.randint(1, 10))
        energy = Fraction(rng.randint(0, 30), 10)
        expected = float(r_plus) > math.exp(energy) * float(r_minus)
        gap = abs(float(r_plus) - math.exp(energy) * float(r_minus))
        if gap < 1e-9:
            continue
        assert admissible(r_plus, r_minus, energy) is expected


def test_huge_energies_are_decided_at_once():
    start = time.perf_counter()
    assert admissible(1, 1, Fraction(10) ** 100000) is False
    assert admissible(1, 1, -Fraction(10) ** 100000) is True
    assert admissible(Fraction(10) ** 400, 1, 920) is True   # 10**400 > e^920 ~ 10**399.6
    assert admissible(Fraction(10) ** 399, 1, 920) is False
    with pytest.raises(UnresolvedComparison):
        admissible(Fraction(1, 10 ** 13), 1, -Fraction(10) ** 100000)
    assert time.perf_counter() - start < 2.0


# oracle: the mpmath interval code this module used to run ---------------------------

INF = float("inf")
reals = st.one_of(
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-1000, max_value=1000),
)
energies = st.one_of(
    st.fractions(min_value=-700, max_value=700, max_denominator=10 ** 6),
    st.floats(min_value=-700, max_value=700),
    st.integers(min_value=-700, max_value=700),
    st.sampled_from([INF, -INF]),
)


def outcome(compare, *args, **kwargs):
    try:
        return compare(*args, **kwargs)
    except UnresolvedComparison:
        return "refused"


@settings(max_examples=400, deadline=None)
@given(reals | st.sampled_from([INF, -INF]), reals, energies, reals, st.booleans())
def test_exp_scaled_compare_matches_mpmath(lhs, coeff, energy, rhs, strict):
    assert (outcome(exp_scaled_compare, lhs, coeff, energy, rhs, strict)
            == outcome(reference_exp_scaled_compare, lhs, coeff, energy, rhs, strict))


def near(coeff, energy, rhs) -> Fraction:
    """coeff * e^energy * rhs to 110 significant digits."""
    q = [Fraction(x) for x in (coeff, energy, rhs)]
    with mpmath.workdps(120):
        c, e, r = (mpmath.mpf(x.numerator) / x.denominator for x in q)
        return Fraction(mpmath.nstr(c * mpmath.exp(e) * r, 110))


@settings(max_examples=300, deadline=None)
@given(reals, st.one_of(st.fractions(min_value=-60, max_value=60, max_denominator=10 ** 6),
                        st.floats(min_value=-60, max_value=60)),
       reals, st.integers(min_value=-40, max_value=40).filter(lambda k: abs(k) != 10),
       st.booleans(), st.booleans())
def test_exp_scaled_compare_near_equality_matches_mpmath(coeff, energy, rhs, offset,
                                                        as_float, strict):
    # lhs is offset/10 of the tolerance away from coeff*e^E*rhs, so every
    # offset in -9..9 lands in the refusal band; offsets of exactly +-10 are
    # left out, where the old code's float tolerance and the exact one differ
    lhs = near(coeff, energy, rhs) + Fraction(offset, 10 ** 13)
    if as_float:
        lhs = float(lhs)
    got = outcome(exp_scaled_compare, lhs, coeff, energy, rhs, strict)
    assert got == outcome(reference_exp_scaled_compare, lhs, coeff, energy, rhs, strict)
    if not as_float and coeff and rhs and energy and abs(offset) < 10:
        assert got == "refused"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(min_value=-700, max_value=700, max_denominator=10 ** 9),
                 st.floats(min_value=-700, max_value=700).filter(bool),
                 st.integers(min_value=-700, max_value=700).filter(bool)),
       st.sampled_from(_PRECISIONS))
def test_exp_bounds_enclose_e_to_the_energy_tightly(energy, bits):
    (lo, lo_x), (hi, hi_x) = _exp_bounds(energy, bits)
    q = Fraction(energy)
    with mpmath.workprec(bits + 200):
        e = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
        low, high = mpmath.ldexp(lo, lo_x), mpmath.ldexp(hi, hi_x)
        assert low < e < high
        assert high - low < e * mpmath.ldexp(1, 2 - bits)
