"""Decorated forests standing in for broken holomorphic buildings.

A forest is a finite directed forest in which every vertex has exactly one
incoming edge.  Edges carry an orbit label (name, submanifold membership,
normal parity, period, optional linking number) and a level; vertices carry
a level pair, an integer intersection datum s_v, and two flags
(representable, ends_in_v).  Input edges miss a source, output edges miss a
sink, interior edges have both.

The numerical layer on top of this combinatorics: the building intersection
number (additivity formula), edge contraction (gluing), concatenation
(stacking), the three twisting maps (a U-monomial, a 0/1 reduction, and the
parameter-gated mixed variant), a positivity checker, and automorphism
counting for differential normalization.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    InadmissibleParameters,
    LabelMismatch,
    MalformedForest,
    NegativeExponent,
    NotInteriorEdge,
    TooLarge,
)
from .ring import UPoly

AUT_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class OrbitLabel:
    name: str
    in_v: bool = False
    p_n: int = 0
    period: float = 0.0
    link: Optional[int] = None

    def __post_init__(self):
        if self.p_n not in (0, 1):
            raise MalformedForest(f"orbit {self.name!r}: parity must be 0 or 1")
        if self.period < 0:
            raise MalformedForest(f"orbit {self.name!r}: period must be nonnegative")
        if not math.isfinite(self.period):
            raise MalformedForest(f"orbit {self.name!r}: period must be finite")

    def cylinder_value(self) -> int:
        """Intersection of the trivial cylinder over this orbit with the submanifold."""
        return -self.p_n if self.in_v else 0

    def key(self) -> tuple:
        return (self.name, self.in_v, self.p_n, self.period, self.link)


@dataclass(frozen=True)
class Vertex:
    vid: str
    level: Tuple[int, int] = (0, 0)
    s: int = 0
    representable: bool = True
    ends_in_v: bool = False

    def label(self) -> tuple:
        return (self.level, self.s, self.representable, self.ends_in_v)


@dataclass(frozen=True)
class Edge:
    eid: str
    src: Optional[str]
    dst: Optional[str]
    orbit: OrbitLabel
    level: int = 0

    def label(self) -> tuple:
        return (self.level,) + self.orbit.key()


class DecoratedForest:
    """Validated, immutable decorated forest."""

    __slots__ = ("vertices", "edges", "top_level")

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[Edge]):
        vmap: Dict[str, Vertex] = {}
        for v in vertices:
            if v.vid in vmap:
                raise MalformedForest(f"duplicate vertex id {v.vid!r}")
            if v.level[0] > v.level[1]:
                raise MalformedForest(f"vertex {v.vid!r}: level pair must be ordered")
            vmap[v.vid] = v
        emap: Dict[str, Edge] = {}
        for e in edges:
            if e.eid in emap:
                raise MalformedForest(f"duplicate edge id {e.eid!r}")
            for endpoint in (e.src, e.dst):
                if endpoint is not None and endpoint not in vmap:
                    raise MalformedForest(f"edge {e.eid!r} refers to unknown vertex {endpoint!r}")
            emap[e.eid] = e

        incoming: Dict[str, List[str]] = {vid: [] for vid in vmap}
        outgoing: Dict[str, List[str]] = {vid: [] for vid in vmap}
        for e in emap.values():
            if e.dst is not None:
                incoming[e.dst].append(e.eid)
            if e.src is not None:
                outgoing[e.src].append(e.eid)
        for vid, inc in incoming.items():
            if len(inc) != 1:
                raise MalformedForest(f"vertex {vid!r} has {len(inc)} incoming edges, wants exactly 1")

        levels = [e.level for e in emap.values()] + [v.level[1] for v in vmap.values()]
        top = max(levels, default=0)
        for e in emap.values():
            if e.src is None and e.level != 0:
                raise MalformedForest(f"input edge {e.eid!r} must sit at level 0")
            if e.dst is None and e.level != top:
                raise MalformedForest(f"output edge {e.eid!r} must sit at the top level {top}")
        for v in vmap.values():
            i, j = v.level
            inc_level = emap[incoming[v.vid][0]].level
            if inc_level != i:
                raise MalformedForest(f"vertex {v.vid!r}: incoming edge level {inc_level} != {i}")
            for eid in outgoing[v.vid]:
                if emap[eid].level != j:
                    raise MalformedForest(f"vertex {v.vid!r}: outgoing edge level mismatch")

        # every vertex has exactly one incoming edge, so the forest is acyclic
        # exactly when each vertex's chain of parents ends at an input edge
        rooted = set()
        for vid in vmap:
            chain = set()
            while vid is not None and vid not in rooted:
                if vid in chain:
                    raise MalformedForest("forest contains a directed cycle")
                chain.add(vid)
                vid = emap[incoming[vid][0]].src
            rooted |= chain

        object.__setattr__(self, "vertices", dict(sorted(vmap.items())))
        object.__setattr__(self, "edges", dict(sorted(emap.items())))
        object.__setattr__(self, "top_level", top)

    def __setattr__(self, *a):
        raise AttributeError("DecoratedForest is immutable")

    def __eq__(self, other):
        if not isinstance(other, DecoratedForest):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    # edge classes ---------------------------------------------------------

    def input_edges(self) -> List[Edge]:
        return [e for e in self.edges.values() if e.src is None]

    def output_edges(self) -> List[Edge]:
        return [e for e in self.edges.values() if e.dst is None]

    def interior_edges(self) -> List[Edge]:
        return [e for e in self.edges.values() if e.src is not None and e.dst is not None]

    def outgoing(self, vid: str) -> List[Edge]:
        return [e for e in self.edges.values() if e.src == vid]


def intersection_number(forest: DecoratedForest) -> int:
    """Building intersection number: vertex data minus interior cylinder terms."""
    total = sum(v.s for v in forest.vertices.values())
    total -= sum(e.orbit.cylinder_value() for e in forest.interior_edges())
    return total


def gamma_minus(forest: DecoratedForest) -> int:
    """Number of output edges whose orbit sits in the bottom-level submanifold."""
    return sum(1 for e in forest.output_edges() if e.orbit.in_v)


def contract_edge(forest: DecoratedForest, eid: str) -> DecoratedForest:
    """Contract one interior edge, merging its endpoints per the gluing rule."""
    e = forest.edges.get(eid)
    if e is None:
        raise MalformedForest(f"no edge {eid!r}")
    if e.src is None or e.dst is None:
        raise NotInteriorEdge(f"edge {eid!r} is exterior")
    upper = forest.vertices[e.src]
    lower = forest.vertices[e.dst]
    merged = Vertex(
        vid=upper.vid,
        level=(min(upper.level[0], lower.level[0]), max(upper.level[1], lower.level[1])),
        s=upper.s + lower.s - e.orbit.cylinder_value(),
        representable=upper.representable and lower.representable,
        ends_in_v=upper.ends_in_v and lower.ends_in_v,
    )
    vertices = [merged] + [v for v in forest.vertices.values() if v.vid not in (upper.vid, lower.vid)]
    edges = []
    for other in forest.edges.values():
        if other.eid == eid:
            continue
        src = merged.vid if other.src == lower.vid else other.src
        dst = merged.vid if other.dst == lower.vid else other.dst
        edges.append(replace(other, src=src, dst=dst))
    return DecoratedForest(vertices, edges)


def concatenate(
    parts: Sequence[DecoratedForest],
    matching: Sequence[Tuple[Tuple[int, str], Tuple[int, str]]],
    offsets: Optional[Sequence[int]] = None,
) -> DecoratedForest:
    """Stack forests, gluing matched (output, input) edge pairs into interior edges.

    Matched pairs must carry identical orbit labels and land on the same
    composite level; `offsets` re-indexes each part's levels in the composite
    (all zero by default, which covers one-story forests).
    """
    if offsets is None:
        offsets = [0] * len(parts)
    if len(offsets) != len(parts):
        raise ValueError("need one level offset per part")

    def key(i: int, ident: str) -> str:
        return f"{i}:{ident}" if len(parts) > 1 else ident

    matched_out = {}
    matched_in = {}
    for (pi, out_id), (pj, in_id) in matching:
        try:
            out_e = parts[pi].edges[out_id]
            in_e = parts[pj].edges[in_id]
        except (IndexError, KeyError) as exc:
            raise LabelMismatch(f"matching refers to a missing edge: {exc}") from exc
        if out_e.dst is not None:
            raise LabelMismatch(f"edge {out_id!r} of part {pi} is not an output edge")
        if in_e.src is not None:
            raise LabelMismatch(f"edge {in_id!r} of part {pj} is not an input edge")
        if out_e.orbit != in_e.orbit:
            raise LabelMismatch(
                f"orbit labels differ on matched pair {out_id!r} / {in_id!r}"
            )
        if out_e.level + offsets[pi] != in_e.level + offsets[pj]:
            raise LabelMismatch(f"levels differ on matched pair {out_id!r} / {in_id!r}")
        key_out, key_in = (pi, out_id), (pj, in_id)
        if key_out in matched_out or key_in in matched_in:
            raise LabelMismatch("edge matched twice")
        matched_out[key_out] = key_in
        matched_in[key_in] = key_out

    vertices = []
    for i, part in enumerate(parts):
        for v in part.vertices.values():
            vertices.append(replace(
                v,
                vid=key(i, v.vid),
                level=(v.level[0] + offsets[i], v.level[1] + offsets[i]),
            ))

    edges = []
    for i, part in enumerate(parts):
        for e in part.edges.values():
            if (i, e.eid) in matched_in:
                continue  # realized by its partner output edge
            src = key(i, e.src) if e.src is not None else None
            dst = key(i, e.dst) if e.dst is not None else None
            level = e.level + offsets[i]
            if (i, e.eid) in matched_out:
                pj, in_id = matched_out[(i, e.eid)]
                partner = parts[pj].edges[in_id]
                dst = key(pj, partner.dst) if partner.dst is not None else None
            edges.append(replace(e, eid=key(i, e.eid), src=src, dst=dst, level=level))
    return DecoratedForest(vertices, edges)


def psi_full(forest: DecoratedForest) -> UPoly:
    """U-monomial twisting weight U^(intersection number + outputs in V)."""
    exponent = intersection_number(forest) + gamma_minus(forest)
    if exponent < 0:
        raise NegativeExponent(
            f"exponent {exponent} < 0: data violates the positivity lower bound"
        )
    return UPoly.monomial(exponent)


def psi_reduced(forest: DecoratedForest) -> int:
    """0/1 weight: 1 iff the intersection number vanishes and no edge meets V."""
    if intersection_number(forest) != 0:
        return 0
    if any(e.orbit.in_v for e in forest.edges.values()):
        return 0
    return 1


def mixed_parameters_admissible(r_plus, r_minus, energy, r_min) -> bool:
    """Gate for the mixed twisting map: r+ >= 2 e^E r- and r+ > 2 / R_min."""
    from .energy import exp_scaled_compare

    if r_plus <= 0 or r_minus < 0 or r_min <= 0:
        return False
    cond1 = exp_scaled_compare(r_plus, 2, energy, r_minus, strict=False)
    cond2 = r_plus > 2 / r_min
    return cond1 and cond2


def psi_mixed(forest: DecoratedForest, r_plus, r_minus, energy, r_min) -> int:
    """Mixed 0/1 weight, defined only for admissible (r+, r-, energy, R_min)."""
    if not mixed_parameters_admissible(r_plus, r_minus, energy, r_min):
        raise InadmissibleParameters(
            f"need r+ >= 2*e^E*r- and r+ > 2/R_min, got r+={r_plus}, r-={r_minus}, "
            f"E={energy}, R_min={r_min}"
        )
    if intersection_number(forest) != 0:
        return 0
    top = forest.top_level
    if any(e.orbit.in_v and e.level == top for e in forest.edges.values()):
        return 0
    return 1


@dataclass(frozen=True)
class PositivityReport:
    vertex_violations: tuple
    unrepresentable: tuple
    global_bound: int
    intersection: int
    global_ok: bool

    @property
    def passed(self) -> bool:
        return not self.vertex_violations and self.global_ok


def check_positivity(forest: DecoratedForest) -> PositivityReport:
    """Per-vertex intersection lower bounds plus the global output-edge bound.

    A vertex all of whose ends lie in the submanifold may dip to minus the
    number of its outgoing submanifold edges; every other vertex must be
    nonnegative.  Globally the intersection number is bounded below by minus
    the number of output edges in the submanifold.
    """
    violations = []
    unrepresentable = tuple(
        v.vid for v in forest.vertices.values() if not v.representable
    )
    for v in forest.vertices.values():
        if v.ends_in_v:
            bound = -sum(1 for e in forest.outgoing(v.vid) if e.orbit.in_v)
        else:
            bound = 0
        if v.s < bound:
            violations.append((v.vid, bound, v.s))
    inter = intersection_number(forest)
    gbound = -gamma_minus(forest)
    return PositivityReport(
        vertex_violations=tuple(violations),
        unrepresentable=unrepresentable,
        global_bound=gbound,
        intersection=inter,
        global_ok=inter >= gbound,
    )


def aut_order(forest: DecoratedForest) -> int:
    """Order of the label-preserving automorphism group.

    Components are rooted at their input edges, so the group is a product of
    symmetric groups on identical children, times permutations of identical
    components; the count is assembled bottom-up from canonical encodings.
    """
    if len(forest.vertices) > AUT_VERTEX_LIMIT:
        raise TooLarge(f"forest has more than {AUT_VERTEX_LIMIT} vertices")

    def encode(edge: Edge):
        if edge.dst is None:
            return ("leaf", edge.label()), 1
        v = forest.vertices[edge.dst]
        children = [encode(child) for child in forest.outgoing(edge.dst)]
        children.sort(key=lambda pair: repr(pair[0]))
        aut = 1
        for _, sub in children:
            aut *= sub
        for _, group in itertools.groupby(children, key=lambda pair: pair[0]):
            aut *= math.factorial(len(list(group)))
        enc = ("node", edge.label(), v.label(), tuple(enc for enc, _ in children))
        return enc, aut

    comps = [encode(e) for e in forest.input_edges()]
    comps.sort(key=lambda pair: repr(pair[0]))
    total = 1
    for _, sub in comps:
        total *= sub
    for _, group in itertools.groupby(comps, key=lambda pair: pair[0]):
        total *= math.factorial(len(list(group)))
    return total


# interchange ---------------------------------------------------------------


def forest_to_doc(forest: DecoratedForest) -> dict:
    # canonical vertex ordering: topological from the component roots, ties
    # broken lexicographically by labels (then ids), so output is stable
    verts: List[Vertex] = []
    roots = sorted(forest.input_edges(), key=lambda e: (e.label(), e.eid))
    for root in roots:
        stack = [root.dst] if root.dst is not None else []
        while stack:
            vid = stack.pop()
            v = forest.vertices[vid]
            verts.append(v)
            children = [e for e in forest.outgoing(vid) if e.dst is not None]
            children.sort(key=lambda e: (e.label(), e.eid), reverse=True)
            stack.extend(e.dst for e in children)
    edges = sorted(forest.edges.values(), key=lambda e: (e.level, e.orbit.key(), e.eid))
    return {
        "vertices": [
            {
                "id": v.vid,
                "level": [v.level[0], v.level[1]],
                "s": v.s,
                "representable": v.representable,
                "ends_in_v": v.ends_in_v,
            }
            for v in verts
        ],
        "edges": [
            {
                "id": e.eid,
                "src": e.src,
                "dst": e.dst,
                "orbit": {
                    "name": e.orbit.name,
                    "in_v": e.orbit.in_v,
                    "p_n": e.orbit.p_n,
                    "period": e.orbit.period,
                    "link": e.orbit.link,
                    "level": e.level,
                },
            }
            for e in edges
        ],
    }


def forest_from_doc(doc: dict) -> DecoratedForest:
    try:
        vertices = [
            Vertex(
                vid=str(v["id"]),
                level=(operator.index(v["level"][0]), operator.index(v["level"][1])),
                s=operator.index(v["s"]),
                representable=bool(v.get("representable", True)),
                ends_in_v=bool(v.get("ends_in_v", False)),
            )
            for v in doc["vertices"]
        ]
        edges = []
        for e in doc["edges"]:
            orbit = e["orbit"]
            if not isinstance(orbit, dict):
                raise TypeError(f"orbit of edge {e['id']!r} is not a JSON object")
            period = orbit.get("period", 0.0)
            if isinstance(period, bool) or not isinstance(period, (int, float)):
                raise TypeError(f"period of edge {e['id']!r} is not a JSON number")
            edges.append(Edge(
                eid=str(e["id"]),
                src=None if e.get("src") is None else str(e["src"]),
                dst=None if e.get("dst") is None else str(e["dst"]),
                level=operator.index(orbit.get("level", 0)),
                orbit=OrbitLabel(
                    name=str(orbit["name"]),
                    in_v=bool(orbit.get("in_v", False)),
                    p_n=operator.index(orbit.get("p_n", 0)),
                    period=float(period),
                    link=None if orbit.get("link") is None else operator.index(orbit["link"]),
                ),
            ))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed forest document: {exc}") from exc
    return DecoratedForest(vertices, edges)
