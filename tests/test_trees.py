import itertools
import json
from pathlib import Path

import pytest

from helpers import exterior_orbit_multiset, random_forest, seeded_rng
from sftkit.errors import (
    LabelMismatch,
    TooLarge,
    InadmissibleParameters,
    MalformedForest,
    NegativeExponent,
    NotInteriorEdge,
)
from sftkit.ring import UPoly
from sftkit.trees import (
    DecoratedForest,
    Edge,
    OrbitLabel,
    Vertex,
    aut_order,
    check_positivity,
    concatenate,
    contract_edge,
    forest_from_doc,
    forest_to_doc,
    gamma_minus,
    intersection_number,
    psi_full,
    psi_mixed,
    psi_reduced,
)

DATA = Path(__file__).parent / "data"
IN_V = OrbitLabel("g", in_v=True, p_n=1, period=1.0)
OUT_V = OrbitLabel("h", in_v=False, p_n=0, period=1.0)


def single_vertex(s, out_orbits, in_orbit=OUT_V, ends_in_v=None):
    adjacent = [in_orbit] + list(out_orbits)
    if ends_in_v is None:
        ends_in_v = all(o.in_v for o in adjacent)
    vertices = [Vertex("v", (0, 0), s, ends_in_v=ends_in_v)]
    edges = [Edge("ein", None, "v", in_orbit)]
    edges += [Edge(f"eout{i}", "v", None, o) for i, o in enumerate(out_orbits)]
    return DecoratedForest(vertices, edges)


def test_trivial_cylinder_in_v():
    forest = single_vertex(-1, [IN_V], in_orbit=IN_V)
    assert intersection_number(forest) == -1
    assert psi_full(forest) == UPoly.const(1)  # U^0


def test_vertex_disjoint_from_v():
    forest = single_vertex(0, [OUT_V])
    assert intersection_number(forest) == 0
    assert psi_reduced(forest) == 1


def two_story_example():
    vertices = [Vertex("v1", (0, 0), 2), Vertex("v2", (0, 0), -1, ends_in_v=True)]
    edges = [
        Edge("in", None, "v1", OUT_V),
        Edge("mid", "v1", "v2", IN_V),
        Edge("out", "v2", None, IN_V),
    ]
    return DecoratedForest(vertices, edges)


def test_interior_edge_additivity():
    forest = two_story_example()
    # 2 + (-1) - (-1) = 2
    assert intersection_number(forest) == 2


def test_contract_merges_and_preserves_intersection():
    forest = two_story_example()
    merged = contract_edge(forest, "mid")
    assert len(merged.vertices) == 1
    (v,) = merged.vertices.values()
    assert v.s == 2
    assert intersection_number(merged) == intersection_number(forest)


def test_contract_disjoint_edge_adds_plainly():
    vertices = [Vertex("v1", (0, 0), 1), Vertex("v2", (0, 0), 2)]
    edges = [
        Edge("in", None, "v1", OUT_V),
        Edge("mid", "v1", "v2", OUT_V),
        Edge("out", "v2", None, OUT_V),
    ]
    merged = contract_edge(DecoratedForest(vertices, edges), "mid")
    (v,) = merged.vertices.values()
    assert v.s == 3


def test_contract_rejects_exterior():
    with pytest.raises(NotInteriorEdge):
        contract_edge(two_story_example(), "in")


def test_contraction_invariance_random():
    rng = seeded_rng(20)
    for _ in range(120):
        forest = random_forest(rng, max_vertices=8)
        value = intersection_number(forest)
        full = psi_full(forest)
        reduced = psi_reduced(forest)
        exterior = exterior_orbit_multiset(forest)
        for eid in [e.eid for e in forest.interior_edges()]:
            contracted = contract_edge(forest, eid)
            assert intersection_number(contracted) == value
            assert psi_full(contracted) == full
            assert psi_reduced(contracted) == reduced
            assert exterior_orbit_multiset(contracted) == exterior
        # contracting everything collapses each component to one vertex
        collapsed = forest
        while collapsed.interior_edges():
            collapsed = contract_edge(collapsed, collapsed.interior_edges()[0].eid)
        assert intersection_number(collapsed) == value
        assert len(collapsed.vertices) == len(collapsed.input_edges())


def test_concatenate_with_empty_forest_is_identity():
    forest = two_story_example()
    empty = DecoratedForest([], [])
    combined = concatenate([forest, empty], [])
    assert intersection_number(combined) == intersection_number(forest)
    assert len(combined.edges) == len(forest.edges)


def _force_matchable(rng, upper, lower):
    """Rebuild `lower` so one of its component roots carries the orbit label of
    a chosen output edge of `upper`; returns (lower', out_id, in_id)."""
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
                "name": out_e.orbit.name,
                "in_v": out_e.orbit.in_v,
                "p_n": out_e.orbit.p_n,
                "period": out_e.orbit.period,
                "link": out_e.orbit.link,
                "level": 0,
            }
    return forest_from_doc(doc), out_e.eid, root.eid


def test_concatenation_multiplicativity_random():
    rng = seeded_rng(21)
    done = 0
    while done < 80:
        upper = random_forest(rng, max_vertices=5)
        lower = random_forest(rng, max_vertices=5)
        forced = _force_matchable(rng, upper, lower)
        if forced is None:
            continue
        lower, out_id, in_id = forced
        combined = concatenate([upper, lower], [((0, out_id), (1, in_id))])
        assert len(combined.interior_edges()) == (
            len(upper.interior_edges()) + len(lower.interior_edges()) + 1
        )
        assert psi_full(combined) == psi_full(upper) * psi_full(lower)
        assert psi_reduced(combined) == psi_reduced(upper) * psi_reduced(lower)
        # interior+output edge count in V is additive under stacking
        def gamma_int(f):
            return sum(1 for e in f.interior_edges() if e.orbit.in_v)
        assert gamma_int(combined) + gamma_minus(combined) == (
            gamma_int(upper) + gamma_minus(upper) + gamma_int(lower) + gamma_minus(lower)
        )
        done += 1


def test_multi_pair_concatenation_multiplicativity():
    rng = seeded_rng(25)
    done = 0
    while done < 40:
        upper = random_forest(rng, max_vertices=6)
        lower = random_forest(rng, max_vertices=6)
        outs = upper.output_edges()
        roots = lower.input_edges()
        if len(outs) < 2 or len(roots) < 2:
            continue
        chosen_outs = rng.sample(outs, 2)
        chosen_roots = rng.sample(roots, 2)
        doc = forest_to_doc(lower)
        for out_e, root in zip(chosen_outs, chosen_roots):
            for entry in doc["edges"]:
                if entry["id"] == root.eid:
                    entry["orbit"] = {
                        "name": out_e.orbit.name, "in_v": out_e.orbit.in_v,
                        "p_n": out_e.orbit.p_n, "period": out_e.orbit.period,
                        "link": out_e.orbit.link, "level": 0,
                    }
        lower2 = forest_from_doc(doc)
        matching = [((0, out_e.eid), (1, root.eid))
                    for out_e, root in zip(chosen_outs, chosen_roots)]
        combined = concatenate([upper, lower2], matching)
        assert len(combined.interior_edges()) == (
            len(upper.interior_edges()) + len(lower2.interior_edges()) + 2
        )
        assert psi_full(combined) == psi_full(upper) * psi_full(lower2)
        assert psi_reduced(combined) == psi_reduced(upper) * psi_reduced(lower2)
        done += 1


def test_psi_full_examples():
    plane = single_vertex(3, [])
    assert psi_full(plane) == UPoly.monomial(3)
    bad = single_vertex(-2, [IN_V], in_orbit=OUT_V)
    with pytest.raises(NegativeExponent):
        psi_full(bad)


def test_psi_reduced_rejects_v_edges():
    forest = single_vertex(0, [IN_V])
    assert psi_reduced(forest) == 0
    cylinder = single_vertex(-1, [IN_V], in_orbit=IN_V)
    assert psi_reduced(cylinder) == 0


def test_psi_mixed_gate_and_values():
    disjoint = single_vertex(0, [OUT_V])
    assert psi_mixed(disjoint, 4, 1, 0, 1) == 1
    with pytest.raises(InadmissibleParameters):
        psi_mixed(disjoint, 1, 1, 0, 10)
    in_v = single_vertex(-1, [IN_V], in_orbit=IN_V)
    assert psi_mixed(in_v, 4, 1, 0, 1) == 0


def test_positivity_report():
    ok = single_vertex(0, [OUT_V])
    assert check_positivity(ok).passed
    # all ends in V with two outputs: bound is -2
    deep = single_vertex(-2, [IN_V, IN_V], in_orbit=IN_V)
    report = check_positivity(deep)
    assert not report.vertex_violations
    assert report.global_ok
    bad = single_vertex(-1, [OUT_V])
    report = check_positivity(bad)
    assert report.vertex_violations == (("v", 0, -1),)


def test_positivity_implies_psi_full_defined():
    rng = seeded_rng(22)
    for _ in range(200):
        forest = random_forest(rng, max_vertices=8)
        assert check_positivity(forest).passed
        psi_full(forest)  # must not raise


def brute_force_aut(forest: DecoratedForest) -> int:
    verts = list(forest.vertices.values())
    edges = list(forest.edges.values())
    count = 0
    for vperm in itertools.permutations(verts):
        if any(a.label() != b.label() for a, b in zip(verts, vperm)):
            continue
        vmap = {a.vid: b.vid for a, b in zip(verts, vperm)}
        for eperm in itertools.permutations(edges):
            good = True
            for a, b in zip(edges, eperm):
                if a.label() != b.label():
                    good = False
                    break
                src = None if a.src is None else vmap[a.src]
                dst = None if a.dst is None else vmap[a.dst]
                if src != b.src or dst != b.dst:
                    good = False
                    break
            if good:
                count += 1
    return count


def test_aut_examples():
    star = single_vertex(0, [OUT_V, OUT_V])
    assert aut_order(star) == 2
    distinct = single_vertex(0, [OUT_V, IN_V])
    assert aut_order(distinct) == 1
    twin_doc = forest_to_doc(single_vertex(0, [OUT_V]))
    twins = concatenate([forest_from_doc(twin_doc), forest_from_doc(twin_doc)], [])
    assert aut_order(twins) == 2


def test_aut_matches_brute_force():
    rng = seeded_rng(23)
    checked = 0
    while checked < 40:
        forest = random_forest(rng, max_vertices=3)
        if len(forest.edges) > 5:
            continue
        assert aut_order(forest) == brute_force_aut(forest)
        checked += 1


def test_document_roundtrip():
    rng = seeded_rng(24)
    for _ in range(25):
        forest = random_forest(rng, max_vertices=6)
        doc = forest_to_doc(forest)
        again = forest_from_doc(json.loads(json.dumps(doc)))
        assert again == forest
        assert forest_to_doc(again) == doc


@pytest.mark.parametrize("path", [("vertices", 0, "s"), ("vertices", 0, "level", 1),
                                  ("edges", 0, "orbit", "p_n"), ("edges", 0, "orbit", "level"),
                                  ("edges", 0, "orbit", "link")],
                         ids=["s", "vertex-level", "p_n", "edge-level", "link"])
def test_document_refuses_non_integral_numbers(path):
    doc = json.loads((DATA / "forest_two_level.json").read_text())
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    forest_from_doc(doc)
    for value in (1.5, 1.0):  # 1.5 was read as 1; an integral float is refused alike
        target[last] = value
        with pytest.raises(ValueError, match="malformed forest document: 'float' object cannot"):
            forest_from_doc(doc)


def two_level_forest():
    """A cobordism-type building: one vertex spanning levels (0,1), one pure
    level-1 vertex below it."""
    vertices = [Vertex("top", (0, 1), 1), Vertex("bot", (1, 1), 0)]
    edges = [
        Edge("in", None, "top", OUT_V, level=0),
        Edge("mid", "top", "bot", IN_V, level=1),
        Edge("out", "bot", None, OUT_V, level=1),
    ]
    return DecoratedForest(vertices, edges)


def test_two_level_forest_structure():
    forest = two_level_forest()
    assert forest.top_level == 1
    assert intersection_number(forest) == 1 - (-1)  # interior edge in V at level 1
    merged = contract_edge(forest, "mid")
    (v,) = merged.vertices.values()
    assert v.level == (0, 1)
    assert intersection_number(merged) == intersection_number(forest)


def test_psi_mixed_only_counts_bottom_level_edges():
    # an edge in V at level 0 of a two-story forest does not kill the mixed
    # weight; the same edge at the bottom level does
    def build(v_level):
        vertices = [Vertex("top", (0, 1), 0), Vertex("bot", (1, 1), 0)]
        edges = [
            Edge("in", None, "top", IN_V if v_level == 0 else OUT_V, level=0),
            Edge("mid", "top", "bot", OUT_V, level=1),
            Edge("out", "bot", None, IN_V if v_level == 1 else OUT_V, level=1),
        ]
        return DecoratedForest(vertices, edges)

    upper_touch = build(0)
    lower_touch = build(1)
    assert psi_mixed(upper_touch, 4, 1, 0, 1) == 1
    assert psi_mixed(lower_touch, 4, 1, 0, 1) == 0


def test_concatenate_level_mismatch_rejected():
    upper = single_vertex(0, [OUT_V])    # output orbit OUT_V at level 0
    lower = two_level_forest()           # input orbit OUT_V at level 0
    out_id = upper.output_edges()[0].eid
    in_id = lower.input_edges()[0].eid
    # labels agree, so with matching offsets the pair glues ...
    combined = concatenate([upper, lower], [((0, out_id), (1, in_id))], offsets=[0, 0])
    assert len(combined.interior_edges()) == 2
    # ... but a level offset on one part must be rejected
    with pytest.raises(LabelMismatch):
        concatenate([upper, lower], [((0, out_id), (1, in_id))], offsets=[0, 1])


def test_aut_too_large():
    doc = forest_to_doc(single_vertex(0, [OUT_V]))
    parts = [forest_from_doc(doc) for _ in range(13)]
    big = concatenate(parts, [])
    with pytest.raises(TooLarge):
        aut_order(big)


def test_forest_validation():
    with pytest.raises(MalformedForest):
        DecoratedForest([Vertex("v", (0, 0), 0)], [])  # no incoming edge
    with pytest.raises(MalformedForest):
        DecoratedForest(
            [Vertex("v", (0, 0), 0)],
            [Edge("e1", None, "v", OUT_V), Edge("e2", None, "v", OUT_V)],
        )
    with pytest.raises(MalformedForest):
        OrbitLabel("bad", p_n=2)


@pytest.mark.parametrize("period, message", [
    (float("nan"), "period must be finite"),
    (float("inf"), "period must be finite"),
    (float("-inf"), "period must be nonnegative"),
    (-1.0, "period must be nonnegative"),
], ids=["nan", "inf", "-inf", "negative"])
def test_orbit_period_must_be_finite_and_nonnegative(period, message):
    with pytest.raises(MalformedForest, match=message):
        OrbitLabel("g", period=period)


CYCLES = {
    "self-loop": ([Vertex("v", (0, 0), 0)], [Edge("e", "v", "v", OUT_V)]),
    "2-cycle": ([Vertex("v", (0, 0), 0), Vertex("w", (0, 0), 0)],
                [Edge("e1", "v", "w", OUT_V), Edge("e2", "w", "v", OUT_V),
                 Edge("out", "w", None, OUT_V)]),
}


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_forest_with_directed_cycle_is_refused(name, tmp_path, capsys):
    # every vertex has its one incoming edge and the levels agree, so only the
    # cycle itself is wrong
    vertices, edges = CYCLES[name]
    with pytest.raises(MalformedForest, match="directed cycle"):
        DecoratedForest(vertices, edges)

    from sftkit.cli import main

    doc = {"vertices": [{"id": v.vid, "level": list(v.level), "s": v.s} for v in vertices],
           "edges": [{"id": e.eid, "src": e.src, "dst": e.dst,
                      "orbit": {"name": e.orbit.name, "level": e.level}} for e in edges]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    assert main(["trees", "show", str(path)]) == 2
    assert "MalformedForest: forest contains a directed cycle" in capsys.readouterr().err
