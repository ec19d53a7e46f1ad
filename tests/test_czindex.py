import math
from fractions import Fraction

import pytest

from helpers import seeded_rng
from sftkit.czindex import (
    cz_crossing,
    cz_direct_sum,
    cz_gamma_orbit,
    cz_rotation,
    normal_index_data,
    rs_shear,
)
from sftkit.errors import BadResonance, DegeneratePath, GenericityViolated


def test_rotation_examples():
    assert cz_rotation(1.3) == 3
    assert cz_rotation(0.5) == 1
    assert cz_rotation(Fraction(13, 10)) == 3
    with pytest.raises(DegeneratePath):
        cz_rotation(2.0)
    with pytest.raises(DegeneratePath):
        cz_rotation(Fraction(2))


def test_rotation_negative_elliptic_sign():
    assert cz_rotation(1.3, negative_elliptic=True) == -3


def test_shear_examples():
    assert rs_shear(3, 2) == Fraction(11, 2)
    assert rs_shear(1, 0) == Fraction(1, 2)
    assert rs_shear(3, 0) == Fraction(3, 2)


def test_shear_loop_property():
    for blocks in range(1, 7):
        for k in range(0, 6):
            assert rs_shear(blocks, k) - rs_shear(blocks, 0) == 2 * k


def test_crossing_examples():
    assert cz_crossing(lambda t: 0.9 * t) == 1
    assert cz_crossing(lambda t: 2.4 * t) == 5
    with pytest.raises(DegeneratePath):
        cz_crossing(lambda t: 3.0 * t)


def test_crossing_agrees_with_rotation_formula():
    rng = seeded_rng(10)
    for _ in range(100):
        lam = rng.uniform(0.01, 9.99)
        if abs(lam - round(lam)) < 1e-6:
            lam += 0.01
        assert cz_crossing(lambda t: lam * t) == cz_rotation(lam)


def test_crossing_on_nonlinear_monotone_path():
    # lam(t) = 2.4 * t^2 is strictly increasing with the same endpoint.
    assert cz_crossing(lambda t: 2.4 * t * t) == 5
    # crossings clustered near t = 1 are still isolated
    assert cz_crossing(lambda t: 9.9 * t ** 3, subdivisions=64) == 1 + 2 * 9


def test_crossing_samples_only_the_grid():
    # the count reads lam(1) off the grid: no sample between grid points
    calls = []

    def trajectory(t):
        calls.append(t)
        return 7.5 * t + math.sin(3 * t) / 10

    for subdivisions in (2, 8, 256):
        calls.clear()
        assert cz_crossing(trajectory, subdivisions=subdivisions) == 1 + 2 * 7
        assert len(calls) == subdivisions + 2  # t = 0 once more, checking the start


def test_crossing_rejects_nonmonotone():
    with pytest.raises(ValueError):
        cz_crossing(lambda t: math.sin(7 * t))


def test_gamma1_examples():
    assert cz_gamma_orbit("gamma1", 1, 10, 2).index == 3
    # floor(a P / 4pi) = floor(1.5) = 1, so the index is 1 + 2 + 0.
    assert cz_gamma_orbit("gamma1", 1, 4 * math.pi * 1.5, 0).index == 3
    with pytest.raises(GenericityViolated):
        cz_gamma_orbit("gamma1", 1, 4 * math.pi, 0)


def test_gamma2_resonant_case():
    # r0 = 0.6: sqrt(1 - r0^2) = 0.8; a = 3.2 pi, P_U = 1 gives ratio 1 = 1/1.
    r0 = 0.6
    a = 3.2 * math.pi
    res = cz_gamma_orbit("gamma2", 1, a, 0, (r0, 1, 1))
    expected_period = (2 - r0 ** 2) * 2 * math.pi / a
    assert res.period == pytest.approx(expected_period)
    # eigenvalue end 2m/(2 - r0^2) = 2/1.64, floor 1
    assert res.index == 1 + 2 * 1 + 0


def test_gamma2_rejects_boundary_radius():
    with pytest.raises(BadResonance):
        cz_gamma_orbit("gamma2", 1, 10, 0, (1.0, 1, 1))


def test_gamma2_rejects_wrong_ratio():
    with pytest.raises(BadResonance):
        cz_gamma_orbit("gamma2", 1, 10, 0, (0.6, 2, 3))


def test_normal_index_examples():
    assert normal_index_data(5) == (5, 1, 2, 3)
    assert normal_index_data(4) == (4, 0, 2, 2)
    assert normal_index_data(1) == (1, 1, 0, 1)


def test_normal_index_invariants():
    for cz in range(-10, 11):
        data = normal_index_data(cz)
        assert data.alpha_plus - data.alpha_minus == data.p_n
        assert data.p_n in (0, 1)
        assert data.p_n % 2 == cz % 2
        assert data.alpha_minus + data.alpha_plus == cz


def test_direct_sum():
    assert cz_direct_sum([3, 2]) == 5
    assert cz_direct_sum([]) == 0
    rng = seeded_rng(11)
    parts = [rng.randint(-5, 5) for _ in range(6)]
    shuffled = parts[:]
    rng.shuffle(shuffled)
    assert cz_direct_sum(parts) == cz_direct_sum(shuffled)
    assert cz_direct_sum(parts) == cz_direct_sum(parts[:3]) + cz_direct_sum(parts[3:])


def test_direct_sum_matches_adapted_form():
    # Normal block of an adapted form with rotation r and period P contributes
    # 1 + 2*floor(rP); the tangential part is caller data.
    r, period, cz_t = Fraction(7, 10), Fraction(3), 4
    assert cz_direct_sum([cz_rotation(r * period), cz_t]) == 1 + 2 * 2 + 4
