import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (check_triangle_ranks, index_consistency, reference_interior_orbit_bound,
                     reference_threshold_parameter, triangle_third_bounds)
from sftkit.czindex import rs_shear
from sftkit.errors import OddDimension, OutOfRange, WindowNotGuaranteed
from sftkit.models import (
    PI,
    ModelParams,
    hc_window,
    interior_orbit_bound,
    linearized_ranks,
    model_chords,
    model_orbits,
    parity_obstruction,
    sigma_sets,
    surgery_cone_ranks,
    threshold_parameter,
)


def params(n, N, rho=math.pi):
    return ModelParams(n=n, a=threshold_parameter(N, rho) + 1.0, N=N, rho=rho)


def family_czs(table, family):
    return [r.cz for r in table if r.family == family]


def test_orbit_tables():
    t5 = model_orbits(params(5, 12))
    assert family_czs(t5, "orbit_a") == [2, 4, 6, 8, 10]
    assert family_czs(t5, "orbit_b") == [6, 8, 10]
    t4 = model_orbits(params(4, 10))
    assert family_czs(t4, "orbit_a") == [2, 4, 6, 8]
    assert family_czs(t4, "orbit_b") == [5, 7, 9]
    assert model_orbits(params(5, 1)) == ()


def test_orbit_degrees_and_links():
    for row in model_orbits(params(5, 12)):
        assert row.generator.degree == row.cz + 5 - 3
        assert row.generator.link == row.cover


def test_window_guard():
    with pytest.raises(WindowNotGuaranteed):
        model_orbits(ModelParams(n=5, a=1.0, N=12, rho=math.pi))


def test_interior_orbit_bound():
    assert interior_orbit_bound(10, math.pi) == 10
    assert interior_orbit_bound(math.pi, 1) == 1
    assert interior_orbit_bound(0.001, 0.001) == 0
    assert interior_orbit_bound(10, 3.0) == 9


def test_pi_constant_has_100_correct_digits():
    with mpmath.workdps(110):
        assert abs(mpmath.mpf(PI.numerator) / PI.denominator - mpmath.pi) < mpmath.mpf(10) ** -100


def test_interior_orbit_bound_refuses_non_finite_input():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            interior_orbit_bound(bad, 1.0)
        with pytest.raises(ValueError):
            interior_orbit_bound(1.0, bad)
    assert threshold_parameter(10, 1e-320) == math.inf


# oracle: the mpmath code (pi at 60 digits) this module used to run; a*rho/pi
# stays below 10**40, where 60 digits fix the floor
positive = st.floats(min_value=1e-6, max_value=1e12)
factor = st.sampled_from([1.0, 1 + 1e-9, 1 - 1e-9, 1 + 2e-9, 1 - 2e-9, 1 + 1e-10, 1 - 1e-8])


@settings(max_examples=300, deadline=None)
@given(positive, st.floats(min_value=1e-6, max_value=1e6))
def test_interior_orbit_bound_matches_mpmath(a, rho):
    assert interior_orbit_bound(a, rho) == reference_interior_orbit_bound(a, rho)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9), st.floats(min_value=1e-3, max_value=1e3),
       factor)
def test_interior_orbit_bound_snap_band_matches_mpmath(n, rho, scale):
    # a puts a*rho/pi on, just inside or just outside the 1e-9 band around n
    a = n * math.pi / rho * scale
    assert interior_orbit_bound(a, rho) == reference_interior_orbit_bound(a, rho)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9),
       st.floats(min_value=1e-300, max_value=1e300) | st.integers(min_value=1, max_value=10 ** 6))
def test_threshold_parameter_matches_mpmath(n, rho):
    assert threshold_parameter(n, rho) == reference_threshold_parameter(n, rho)


def test_threshold_certifies_window():
    for n_window in (5, 12, 30):
        a = threshold_parameter(n_window, 2.0)
        assert interior_orbit_bound(a, 2.0) >= n_window


def test_chord_table():
    rows = model_chords(4, 2)
    spot = {(r.generator.name): (r.generator.degree, r.generator.link) for r in rows}
    assert spot == {"a1": (1, 1), "a2": (3, 2), "b1": (4, 1), "b2": (6, 2)}
    assert model_chords(6, 1)[-1].generator.degree == 6  # n - 2 + 2
    assert model_chords(5, 0) == ()


def test_parity_obstruction():
    for n, N in ((5, 12), (4, 10)):
        report = parity_obstruction(n, model_orbits(params(n, N)))
        assert report.passed
        assert report.differential_vanishes
    # synthetic violation: index 3 with linking 0 fails mod 4
    from sftkit.dga import Generator
    from sftkit.models import TableRow

    fake = (TableRow("orbit_a", 1, 3, Generator("bad", 5, link=0)),)
    report = parity_obstruction(5, fake)
    assert not report.passed
    assert report.congruence_failures


def test_index_consistency_with_shear_blocks():
    table = model_orbits(params(5, 12))
    assert index_consistency(5, table) == []
    assert rs_shear(4, 2) - rs_shear(4, 0) == 4  # the cover shift underneath


def test_sigma_sets():
    s1, s2 = sigma_sets(5, 12)
    assert s1 == (2, 4, 6, 8, 10)
    assert s2 == (6, 8, 10)
    s1, s2 = sigma_sets(4, 10)
    assert s1 == (2, 4, 6, 8)
    assert s2 == (5, 7, 9)


def test_rank_table_n5():
    table = linearized_ranks(5, 12)
    expected = {k: 0 for k in range(1, 12)}
    expected.update({2: 1, 4: 1, 6: 2, 8: 2, 10: 2})
    assert table == expected


def test_rank_table_n4():
    table = linearized_ranks(4, 10)
    expected = {k: 0 for k in range(1, 10)}
    expected.update({k: 1 for k in (2, 4, 5, 6, 7, 8, 9)})
    assert table == expected


def test_rank_table_trivial_window():
    assert all(v == 0 for v in linearized_ranks(5, 2).values())


def test_rank_table_parity_split():
    # even n: the two families have opposite parity and never overlap
    table6 = linearized_ranks(6, 15)
    assert set(k for k, v in table6.items() if v == 1) == {2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14}
    assert not any(v == 2 for v in table6.values())
    # odd n: the long family lands inside the even support
    table7 = linearized_ranks(7, 16)
    assert set(k for k, v in table7.items() if v == 2) == {8, 10, 12, 14}
    assert set(k for k, v in table7.items() if v == 1) == {2, 4, 6}


def test_hc_window():
    res = hc_window(4)
    assert res.bidegree == (8, 2)
    assert res.rank == 1
    assert res.representative == ("b1", "b1")
    assert res.neighbor_ranks == {7: 0, 9: 0}
    res6 = hc_window(6)
    assert res6.bidegree == (12, 2) and res6.rank == 1
    with pytest.raises(OddDimension):
        hc_window(5)


def test_surgery_cone():
    table = surgery_cone_ranks(2, 5, 10)
    assert [k for k, v in table.items() if v] == [3, 5, 7, 9]
    table = surgery_cone_ranks(3, 5, 8)  # k = n - 2
    assert [k for k, v in table.items() if v] == [2, 4, 6, 8]
    with pytest.raises(OutOfRange):
        surgery_cone_ranks(5, 5, 10)


def test_triangle_bounds():
    # cone ranks are consistent with the two vertex terms they interpolate
    a = {3: 1, 5: 1}
    b = {3: 1, 4: 1, 5: 1}
    bounds = triangle_third_bounds(a, b, range(0, 7))
    for k, (lo, hi) in bounds.items():
        assert 0 <= lo <= hi
    assert check_triangle_ranks(a, b, {4: 2}, range(0, 7)) == []
    assert check_triangle_ranks(a, b, {4: 9}, range(0, 7))
