"""The benchmark's four workloads: seeded inputs, timed jobs and their checks.

A workload is a fixed list of jobs; one round runs every job once.  Each job
has three parts:

* ``run()`` is the timed call into sftkit's public API;
* ``digest(output)`` reduces the output to a small plain value, untimed,
  right after the round, so no round's output is kept alive;
* ``check(digest)`` compares that value with an answer computed outside
  sftkit (``oracles``) and returns ``None`` or a description of the fault.

``build`` makes every input from the seed.  ``smoke=True`` selects tiny sizes
for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, List, Optional

# Calls go through module attributes (``ring.smith_normal_form``), which is
# what the tracer in spans.py rebinds.
from sftkit import cli, cyclic, dga, models, ring
from sftkit.ring import ExactMatrix, UPoly

WORKLOADS = ("cyclic_q", "hc_window", "homology_qu", "cli_short")


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    jobs: List[Job]
    top: str  # name of the largest fixed job, reported as top_job_s
    warmup: Callable[[], Any]


def _oracles():
    import oracles  # imports sympy: loaded only when checks run, after timing

    return oracles


def monic(p) -> tuple:
    coeffs = [Fraction(c) for c in p.coeffs]
    return tuple(c / coeffs[-1] for c in coeffs)


def summary_digest(summary) -> tuple:
    """((degree, (free rank, (monic torsion coefficients, ...))), ...)."""
    return tuple((k, (s.free_rank, tuple(monic(t) for t in s.torsion)))
                 for k, s in sorted(summary.items()))


def _with_coeff(doc: dict, generator: str, value: int) -> dict:
    """A copy of an algebra document with d(generator) multiplied by ``value``."""
    doc = json.loads(json.dumps(doc))
    for term in doc["differential"][generator]:
        term["coeff"] = str(Fraction(term["coeff"]) * value)
    return doc


def _sign(rng: random.Random) -> int:
    """The seed flips signs of differentials only: other scalings would change
    the size of the rationals in elimination, and so the cost, from seed to
    seed."""
    return rng.choice((1, -1))


# cyclic_q ----------------------------------------------------------------------


def _cyclic_q(seed, data: Path, smoke):
    rng = random.Random(seed)
    exact_doc = json.loads((data / "exact_pair.json").read_text())
    exact = dga.dga_from_doc(_with_coeff(exact_doc, "a", _sign(rng)))
    unit = dga.DGA("Q", dga.MODE_ASSOCIATIVE,
                   [dga.Generator("x", 1), dga.Generator("a1", 4), dga.Generator("b1", 3)],
                   {"x": dga.AlgebraElement("Q", {(): _sign(rng)}),
                    "a1": dga.AlgebraElement("Q", {("b1",): _sign(rng)})})
    windows = range(3, 7) if smoke else range(5, 15)
    top = max(windows)

    def job(label, algebra, hi, closed_form):
        @lru_cache(maxsize=None)
        def sympy_ranks():
            return _oracles().free_ranks_q(cyclic.cyclic_complex(algebra, 0, hi), 0, hi)

        def check(got):
            o = _oracles()
            problem = o.compare(f"{label} 0..{hi}", dict(got), getattr(o, closed_form)(0, hi))
            if problem is None and hi == top:
                free = {k: v[0] for k, v in got}
                problem = o.compare(f"{label} 0..{hi} vs sympy ranks", free, sympy_ranks())
            return problem

        return Job(f"{label}/0..{hi}",
                   lambda: cyclic.reduced_cyclic_homology(algebra, 0, hi),
                   summary_digest, check)

    jobs = [job("exact_pair", exact, hi, "exact_pair_hc") for hi in windows]
    jobs += [job("unit_exact", unit, hi, "unit_exact_hc") for hi in windows]
    return Workload(jobs, f"exact_pair/0..{top}",
                    lambda: cyclic.reduced_cyclic_homology(exact, 0, 9))


# hc_window ---------------------------------------------------------------------


def _hc_window(seed, data, smoke):
    sizes = (4, 6) if smoke else (4, 6, 8, 10, 12, 14)

    def job(n):
        def digest(res):
            return (res.rank, tuple(res.representative or ()),
                    tuple(sorted(res.neighbor_ranks.items())))

        def check(got):
            classes = _oracles().hc_window_classes(n)
            want = (len(classes[2 * n]), tuple(classes[2 * n][0]) if classes[2 * n] else (),
                    ((2 * n - 1, len(classes[2 * n - 1])), (2 * n + 1, len(classes[2 * n + 1]))))
            if want[0] != 1 or want[1] != ("b1", "b1"):
                return f"n={n}: counting gives {want}, not the b1*b1 class"
            if got != want:
                return f"n={n}: hc_window gives {got}, link-2 word count gives {want}"
            return None

        return Job(f"hc/n={n}", lambda: models.hc_window(n), digest, check)

    return Workload([job(n) for n in sizes], f"hc/n={max(sizes)}",
                    lambda: models.hc_window(8))


# homology_qu ---------------------------------------------------------------------


def random_qu_matrix(rng: random.Random, size: int) -> ExactMatrix:
    """Each entry has 1-3 coefficients (so degree <= 2), each uniform in [-3, 3]."""
    return ExactMatrix("QU", [[UPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                               for _ in range(size)] for _ in range(size)])


def _homology_qu(seed, data: Path, smoke):
    rng = random.Random(seed)
    u = UPoly.monomial(1)
    pair = dga.DGA("QU", dga.MODE_ASSOCIATIVE, [dga.Generator("a", 2), dga.Generator("b", 1)],
                   {"a": dga.AlgebraElement("QU", {("b",): u * UPoly.const(_sign(rng))})})
    orbit = dga.dga_from_doc(json.loads((data / "orbit_qu.json").read_text()))
    # The cost of one Smith form varies a lot from matrix to matrix; 300 of
    # them keep the batch's total and its tail steadier from seed to seed.
    matrices = [random_qu_matrix(rng, 4) for _ in range(8 if smoke else 300)]
    jobs = []

    pair_windows = (4, 6) if smoke else (8, 10, 12)
    for hi in pair_windows:
        def run(hi=hi):
            return dga.homology(cyclic.cyclic_complex(pair, 0, hi), 0, hi)

        @lru_cache(maxsize=None)
        def want(hi=hi):
            o = _oracles()
            cx = cyclic.cyclic_complex(pair, 0, hi)
            return {k: (0, ((0, 1),) * o.q_rank(o.at_u_equals_one(o.boundary_rows(cx, k + 1))))
                    for k in range(0, hi + 1)}

        jobs.append(Job(f"u_exact_pair/0..{hi}", run, summary_digest,
                        lambda got, hi=hi, want=want:
                        _oracles().compare(f"U-exact pair 0..{hi}", dict(got), want())))

    for hi in ((6, 8) if smoke else (12, 18, 24)):
        def run(hi=hi):
            return dga.homology(dga.word_complex(orbit, 0, hi + 1), 0, hi)

        @lru_cache(maxsize=None)
        def want(hi=hi):
            return _oracles().homology_qu(dga.word_complex(orbit, 0, hi + 1), 0, hi)

        jobs.append(Job(f"orbit_qu/0..{hi}", run, summary_digest,
                        lambda got, hi=hi, want=want:
                        _oracles().compare(f"orbit_qu 0..{hi}", dict(got), want())))

    first = {}  # matrix index -> (first result, whether it verified)

    for i, m in enumerate(matrices):
        def digest(res, m=m, i=i):
            # L @ M @ R = D is checked once per matrix; a later round's result
            # is compared with the first one, which is much cheaper
            if i not in first:
                first[i] = res, res.verify(m)
            seen, ok = first[i]
            if (res.left, res.right, res.diagonal) != (seen.left, seen.right, seen.diagonal):
                ok = res.verify(m)
            return tuple(monic(f) for f in res.factors), ok

        def check(got, m=m):
            factors, ok = got
            if not ok:
                return "smith_normal_form: L @ M @ R != D"
            want = _oracles().nonunit_factors(m.rows)
            have = tuple(f for f in factors if len(f) > 1)
            if have != want:
                return f"smith_normal_form factors {have} != sympy {want}"
            return None

        jobs.append(Job(f"smith4x4/{i}", lambda m=m: ring.smith_normal_form(m), digest, check))

    return Workload(jobs, f"u_exact_pair/0..{pair_windows[-1]}",
                    lambda: ring.smith_normal_form(matrices[0]))


# cli_short -----------------------------------------------------------------------


def run_cli(argv):
    """One in-process command: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _payload(text: str):
    header, _, body = text.partition("\n")
    if header != cli.MACHINE_HEADER:
        raise ValueError(f"missing machine header in {text[:40]!r}")
    return json.loads(body)


ORBITS = [  # (name, in_v, p_n, period): orbits in V have normal parity 1
    ("in1", True, 1, 1.0), ("in2", True, 1, 2.0),
    ("out1", False, 0, 1.5), ("out2", False, 1, 2.5), ("out3", False, 0, 0.5),
]


def random_forest_doc(rng: random.Random, max_vertices: int = 7) -> dict:
    """A forest meeting the positivity hypotheses: a vertex whose ends all lie
    in V has s >= -(its outgoing edges in V), every other vertex s >= 0."""
    vertices, edges = [], []
    budget = [rng.randint(1, max_vertices)]
    ids = itertools.count(1)

    def orbit():
        name, in_v, p_n, period = rng.choice(ORBITS)
        return {"name": name, "in_v": in_v, "p_n": p_n, "period": period,
                "link": None, "level": 0}

    def grow(parent_orbit) -> str:
        vid = f"v{next(ids)}"
        budget[0] -= 1
        children = []
        for _ in range(rng.randint(0, 3)):
            o = orbit()
            child = grow(o) if budget[0] > 0 and rng.random() < 0.5 else None
            children.append((o, child))
        ends_in_v = parent_orbit["in_v"] and all(o["in_v"] for o, _ in children)
        bound = -sum(1 for o, _ in children if o["in_v"]) if ends_in_v else 0
        vertices.append({"id": vid, "level": [0, 0], "s": rng.randint(bound, bound + 3),
                         "representable": True, "ends_in_v": ends_in_v})
        for o, child in children:
            edges.append({"id": f"e{len(edges) + 1}", "src": vid, "dst": child, "orbit": o})
        return vid

    root_orbit = orbit()
    root = grow(root_orbit)
    edges.append({"id": f"e{len(edges) + 1}", "src": None, "dst": root, "orbit": root_orbit})
    return {"vertices": vertices, "edges": edges}


def _decimal(rng, lo, hi) -> str:
    """A decimal string in (lo, hi) whose fractional part is never 0."""
    return f"{rng.randint(lo, hi - 1)}.{rng.randint(1, 9)}{rng.randint(0, 9)}"


def _cli_short(seed, data: Path, smoke, outdir: Path):
    rng = random.Random(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    forests = []
    for i in range(5):
        doc = random_forest_doc(rng)
        path = outdir / f"forest-{seed}-{i}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        forests.append((str(path), doc))

    o = _oracles
    commands = []  # (argv, function giving the expected machine payload)
    for _ in range(30):
        lam = _decimal(rng, 0, 10)
        commands.append((["cz", "--rotation", lam],
                         lambda lam=lam: {"op": "rotation",
                                          "value": o().cz_rotation(Fraction(lam))}))
    for _ in range(20):
        b, k = rng.randint(1, 12), rng.randint(0, 5)
        commands.append((["cz", "--shear", str(b), str(k)],
                         lambda b=b, k=k: {"op": "shear", "value": str(o().rs_shear(b, k))}))
    for _ in range(15):
        r_minus = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        energy = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        factor = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3)))
        # r+ is a far-from-equality multiple of e^E r-, rounded to 1/1000
        r_plus = Fraction(round(factor * r_minus * Fraction(math.exp(energy)) * 1000), 1000)
        argv = ["energy", "--r-plus", str(r_plus), "--r-minus", str(r_minus),
                "--energy", str(energy)]
        commands.append((argv, lambda a=(r_plus, r_minus, energy):
                         {"op": "admissible", "value": o().admissible(*a)}))
    for i in range(15):
        path, doc = forests[i % len(forests)]
        action = ("intersection", "psi", "positivity")[i % 3]
        if action == "intersection":
            want = lambda doc=doc: {"op": "intersection", "value": o().forest_intersection(doc)}
        elif action == "psi":
            def want(doc=doc):
                e = o().forest_psi_exponent(doc)
                return {"op": "psi", "value": "1" if e == 0 else "U" if e == 1 else f"U^{e}"}
        else:
            def want(doc=doc):
                inter = o().forest_intersection(doc)
                gamma = sum(1 for e in doc["edges"] if e["dst"] is None and e["orbit"]["in_v"])
                return {"op": "positivity", "passed": True, "vertex_violations": [],
                        "unrepresentable": [], "intersection": inter, "global_bound": -gamma}
        commands.append((["trees", action, path], want))
    n = 8
    for _ in range(3):
        big_n = rng.randint(10, 18)
        a = str(big_n + rng.randint(1, 20))
        commands.append((["model", "orbits", "--n", str(n), "--a", a, "--N", str(big_n)],
                         lambda N=big_n: {"op": "orbits", "rows": [
                             {"family": f, "cover": j, "cz": cz, "deg": d, "link": l,
                              "name": ("ga" if f == "orbit_a" else "gb") + str(j)}
                             for f, j, cz, d, l in o().orbit_rows(n, N)]}))
        commands.append((["model", "ranks", "--n", str(n), "--N", str(big_n)],
                         lambda N=big_n: {"op": "ranks", "ranks": {
                             str(k): v for k, v in o().sigma_rank_table(n, N).items()}}))
        k, top = rng.randint(1, n - 2), rng.randint(10, 30)
        commands.append((["model", "cone", "--k", str(k), "--n", str(n), "--top", str(top)],
                         lambda k=k, top=top: {"op": "cone", "ranks": {
                             str(d): v for d, v in o().cone_pattern(k, n, top).items()}}))
        commands.append((["model", "parity", "--n", str(n), "--a", a, "--N", str(big_n)],
                         lambda: {"op": "parity", "passed": True, "modulus": n - 1,
                                  "failures": [], "differential_vanishes": True}))
    hc = (["model", "hc", "--n", str(n)],
          lambda: {"op": "hc", "bidegree": [2 * n, 2], "rank": 1, "representative": ["b1", "b1"],
                   "neighbors": {str(2 * n - 1): 0, str(2 * n + 1): 0}})
    commands += [hc, hc]
    for name in ("exact_pair", "orbit_qu", "legendrian_q"):
        path = str(data / f"{name}.json")
        commands.append((["dga", path, "--check"], lambda: {"op": "check", "value": True}))
    for name in ("orbit_qu", "legendrian_q"):
        path = str(data / f"{name}.json")
        commands.append((["dga", path, "--bidegree"], lambda: {"op": "bidegree", "value": True}))
        doc = json.loads(Path(path).read_text())

        def basis(doc=doc):
            out = {}
            for g in doc["generators"]:
                out.setdefault(str(g["deg"]), []).append(g["name"])
            return {"op": "linearize", "basis": {k: sorted(v) for k, v in out.items()}}

        commands.append((["dga", path, "--linearize", "zero"], basis))
    if smoke:
        commands = commands[::10] + [hc]
    rng.shuffle(commands)

    def job(index, argv, want):
        argv = ["--format", "machine"] + argv

        def check(got):
            code, text = got
            if code != 0:
                return f"{' '.join(argv)}: exit code {code}"
            payload = _payload(text)
            if payload.get("op") == "linearize":
                payload["basis"] = {k: sorted(v) for k, v in payload["basis"].items()}
            expected = want()
            if payload != expected:
                return f"{' '.join(argv)}: {payload} != {expected}"
            return None

        return Job(f"cmd/{index}/{argv[2]}-{argv[3]}", lambda: run_cli(argv), lambda out: out,
                   check)

    jobs = [job(i, argv, want) for i, (argv, want) in enumerate(commands)]
    # the largest fixed command: the cyclic window of the n = 8 model
    top = next(j.name for j in jobs if j.name.endswith("/model-hc"))
    return Workload(jobs, top, lambda: run_cli(["cz", "--rotation", "1.5"]))


def build(name: str, seed: int, root: Path, outdir: Path, smoke: bool = False) -> Workload:
    data = root / "tests" / "data"
    if name == "cyclic_q":
        return _cyclic_q(seed, data, smoke)
    if name == "hc_window":
        return _hc_window(seed, data, smoke)
    if name == "homology_qu":
        return _homology_qu(seed, data, smoke)
    if name == "cli_short":
        return _cli_short(seed, data, smoke, outdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
