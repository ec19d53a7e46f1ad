"""Acceptance battery: every guaranteed formula, table, and property oracle.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Randomized drivers honor the SFTKIT_SEED environment
variable.
"""

import itertools
import math
import time
from fractions import Fraction

from helpers import det, monic, multiply, poly_gcd, random_forest, scaled, seeded_rng
from sftkit.czindex import cz_crossing, cz_gamma_orbit, cz_rotation, rs_shear
from sftkit.cyclic import reduced_cyclic_homology
from sftkit.dga import DGA, AlgebraElement, Generator, dga_from_doc
from sftkit.energy import admissible, glue_energy
from sftkit.errors import NegativeExponent, UnresolvedComparison
from sftkit.models import hc_window, linearized_ranks, surgery_cone_ranks
from sftkit.ring import RING_Q, RING_QU, ExactMatrix, UPoly, smith_normal_form
from sftkit.trees import (
    check_positivity,
    concatenate,
    contract_edge,
    forest_from_doc,
    forest_to_doc,
    psi_full,
    psi_reduced,
)


def _report(cid: str, ok: bool, detail: str = ""):
    print(f"{cid}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{cid} failed {detail}"


def test_c01_crossing_count_matches_rotation_formula():
    rng = seeded_rng(101)
    start = time.time()
    for _ in range(100):
        lam = rng.uniform(0.02, 9.98)
        if abs(lam - round(lam)) < 1e-6:
            lam += 0.01
        expect = 1 + 2 * math.floor(lam)
        assert cz_rotation(lam) == expect
        assert cz_crossing(lambda t: lam * t) == expect
    _report("C01 rotation-index agreement", True, f"{time.time() - start:.2f}s")


def test_c02_shear_loop_property():
    ok = all(
        rs_shear(b, k) == Fraction(b, 2) + 2 * k
        for b in range(1, 7)
        for k in range(0, 6)
    )
    _report("C02 shear/loop index", ok)


def test_c03_tubular_orbit_index():
    value = cz_gamma_orbit("gamma1", 1, 10, 2).index
    _report("C03 tubular orbit index", value == 3, f"got {value}")


def _random_concatenation(rng):
    upper = random_forest(rng, max_vertices=5)
    lower = random_forest(rng, max_vertices=5)
    outs = upper.output_edges()
    roots = lower.input_edges()
    if not outs or not roots:
        return None
    out_e = rng.choice(outs)
    root = rng.choice(roots)
    doc = forest_to_doc(lower)
    for entry in doc["edges"]:
        if entry["id"] == root.eid:
            entry["orbit"] = {
                "name": out_e.orbit.name, "in_v": out_e.orbit.in_v,
                "p_n": out_e.orbit.p_n, "period": out_e.orbit.period,
                "link": out_e.orbit.link, "level": 0,
            }
    lower = forest_from_doc(doc)
    return upper, lower, out_e.eid, root.eid


def test_c04_twisting_map_axioms():
    rng = seeded_rng(104)
    contraction_checks = 0
    for _ in range(500):
        forest = random_forest(rng, max_vertices=8)
        full = psi_full(forest)
        reduced = psi_reduced(forest)
        for eid in [e.eid for e in forest.interior_edges()]:
            contracted = contract_edge(forest, eid)
            assert psi_full(contracted) == full
            assert psi_reduced(contracted) == reduced
            contraction_checks += 1
    concat_checks = 0
    while concat_checks < 500:
        built = _random_concatenation(rng)
        if built is None:
            continue
        upper, lower, out_id, in_id = built
        combined = concatenate([upper, lower], [((0, out_id), (1, in_id))])
        assert psi_full(combined) == psi_full(upper) * psi_full(lower)
        assert psi_reduced(combined) == psi_reduced(upper) * psi_reduced(lower)
        concat_checks += 1
    _report("C04 twisting-map axioms", True,
            f"{contraction_checks} contractions, {concat_checks} concatenations")


def test_c05_positivity_consistency():
    rng = seeded_rng(105)
    for _ in range(500):
        forest = random_forest(rng, max_vertices=8)
        report = check_positivity(forest)
        assert report.passed
        try:
            psi_full(forest)
        except NegativeExponent as exc:  # pragma: no cover
            _report("C05 positivity consistency", False, str(exc))
    _report("C05 positivity consistency", True, "500 forests")


def test_c06_energy_composition():
    rng = seeded_rng(106)
    checked = 0
    while checked < 1000:
        r_plus = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        r_mid = Fraction(rng.randint(1, 250), rng.randint(1, 20))
        r_minus = Fraction(rng.randint(0, 120), rng.randint(1, 20))
        e1 = Fraction(rng.randint(0, 25), 10)
        e2 = Fraction(rng.randint(0, 25), 10)
        try:
            if admissible(r_plus, r_mid, e1) and admissible(r_mid, r_minus, e2):
                glued = glue_energy(e1, e2, True)
                assert admissible(r_plus, r_minus, glued)
                checked += 1
        except UnresolvedComparison:
            continue
    _report("C06 energy composition", True, "1000 admissible pairs")


STORED_DGAS = (
    "tests/data/orbit_qu.json",
    "tests/data/legendrian_q.json",
    "tests/data/exact_pair.json",
    "tests/data/acyclic_unit.json",
)

BIGRADED_DGAS = ("tests/data/orbit_qu.json", "tests/data/legendrian_q.json")


def _load_dga(path):
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    return dga_from_doc(json.loads((root / path).read_text()))


def test_c07_dga_axioms():
    for path in STORED_DGAS:
        assert _load_dga(path).check_d_squared() == [], path
    for path in BIGRADED_DGAS:
        assert _load_dga(path).check_bidegree() == [], path

    rng = seeded_rng(107)
    gens = [Generator("w", 1), Generator("x", 2), Generator("y", 3), Generator("z", 4)]
    algebra = DGA(RING_Q, "commutative", gens, {
        "x": AlgebraElement(RING_Q, {("w",): 1}),
        "z": AlgebraElement(RING_Q, {("y",): 1, ("w", "x"): Fraction(1, 2)}),
    })
    assert algebra.check_d_squared() == []
    names = list(algebra.generators)
    pairs = 0
    while pairs < 200:
        w_raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        v_raw = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        w = algebra.element({w_raw: 1})
        v = algebra.element({v_raw: 1})
        if w.is_zero() or v.is_zero():
            continue
        lhs = algebra.apply_differential(multiply(algebra, w, v))
        sign = -1 if algebra.degree_of_word(w_raw) % 2 else 1
        rhs = multiply(algebra, algebra.apply_differential(w), v) + scaled(
            multiply(algebra, w, algebra.apply_differential(v)), sign)
        assert lhs == rhs
        pairs += 1
    _report("C07 d^2 / Leibniz / bidegree", True, "4 stored algebras, 200 pairs")


def test_c08_cyclic_pattern_for_exact_pair_family():
    # Family: for each pair, one generator of degree d+1 mapping onto one of
    # degree d (here a single pair of degrees 2 and 1, within the allowed
    # "up to 3 pairs, degrees <= 4").  Expected below per the acceptance
    # contract: rank 1 in every odd positive degree of the window, 0
    # elsewhere.
    #
    # Mathematical note: the tensor algebra on an exact two-term complex has
    # *vanishing* reduced cyclic homology over the rationals (its homology is
    # the ground field, and rotation coinvariants are exact in characteristic
    # zero), so the expected pattern cannot hold for this family; the pattern
    # is realized exactly when the unit itself is a boundary (see
    # test_c08_companion below).  This check is kept faithful to its
    # contract and is expected to fail.
    start = time.time()
    algebra = DGA(RING_Q, "associative",
                  [Generator("a1", 2), Generator("b1", 1)],
                  {"a1": AlgebraElement(RING_Q, {("b1",): 1})})
    assert algebra.check_d_squared() == []
    summary = reduced_cyclic_homology(algebra, 0, 15)
    ranks = {k: v.free_rank for k, v in summary.items()}
    expected = {k: (1 if k % 2 == 1 and k > 0 else 0) for k in range(0, 16)}
    elapsed = time.time() - start
    _report("C08 acyclic cyclic pattern", ranks == expected,
            f"{elapsed:.2f}s; got ranks {sorted(k for k, v in ranks.items() if v)} "
            f"expected odd degrees")


def test_c08_companion_unit_exact_algebras_realize_the_pattern():
    # The odd-degree pattern for algebras whose homology vanishes entirely:
    # a degree-1 generator mapping onto the unit, optionally with extra
    # exact pairs (degrees <= 4) adjoined.
    start = time.time()
    families = [
        DGA(RING_Q, "associative", [Generator("x", 1)],
            {"x": AlgebraElement(RING_Q, {(): 1})}),
        DGA(RING_Q, "associative",
            [Generator("x", 1), Generator("a1", 4), Generator("b1", 3)],
            {"x": AlgebraElement(RING_Q, {(): 1}),
             "a1": AlgebraElement(RING_Q, {("b1",): 1})}),
    ]
    windows = (15, 9)
    for algebra, hi in zip(families, windows):
        assert algebra.check_d_squared() == []
        summary = reduced_cyclic_homology(algebra, 0, hi)
        ranks = {k: v.free_rank for k, v in summary.items()}
        expected = {k: (1 if k % 2 == 1 and k > 0 else 0) for k in range(0, hi + 1)}
        assert ranks == expected, ranks
    _report("C08b unit-exact cyclic pattern", True, f"{time.time() - start:.2f}s")


def test_c09_rank_table_reproduction():
    table5 = linearized_ranks(5, 12)  # internally cross-checked vs homology
    expected5 = {k: 0 for k in range(1, 12)}
    expected5.update({2: 1, 4: 1, 6: 2, 8: 2, 10: 2})
    assert table5 == expected5
    table4 = linearized_ranks(4, 10)
    expected4 = {k: 0 for k in range(1, 10)}
    expected4.update({k: 1 for k in (2, 4, 5, 6, 7, 8, 9)})
    assert table4 == expected4
    assert not any(v == 2 for v in table4.values())
    _report("C09 rank tables", True, "n=5/N=12 and n=4/N=10")


def test_c10_cyclic_window():
    res = hc_window(4)
    ok = (
        res.rank == 1
        and res.bidegree == (8, 2)
        and res.representative == ("b1", "b1")
        and res.neighbor_ranks == {7: 0, 9: 0}
    )
    _report("C10 cyclic window", ok, f"rank {res.rank} at {res.bidegree}")


def test_c11_surgery_cone_pattern():
    table = surgery_cone_ranks(2, 5, 10)
    got = sorted(k for k, v in table.items() if v)
    _report("C11 surgery cone", got == [3, 5, 7, 9], f"degrees {got}")


def test_c12_smith_form_oracle():
    rng = seeded_rng(112)
    start = time.time()
    for _ in range(200):
        m = ExactMatrix(RING_QU, [
            [UPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
             for _ in range(4)]
            for _ in range(3)
        ])
        res = smith_normal_form(m)
        assert res.verify(m)
        product = UPoly.const(1)
        for k, factor in enumerate(res.factors, start=1):
            product = product * factor
            acc = UPoly()
            for rows in itertools.combinations(range(3), k):
                for cols in itertools.combinations(range(4), k):
                    sub = ExactMatrix(RING_QU, [[m[i, j] for j in cols] for i in rows])
                    acc = poly_gcd(acc, det(sub))
            assert monic(product) == acc
    _report("C12 invariant-factor oracle", True, f"200 matrices, {time.time() - start:.2f}s")
