"""Command line entry point.

One subcommand per subsystem: cz, trees, energy, dga, cyclic, model.  Output
is either an aligned text table (default) or "machine" format: a version
header line followed by one JSON document per line with sorted keys, byte
identical across runs for identical inputs.  Exit codes: 0 success, 1 I/O or
parse failure, 2 mathematical domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import cyclic as cyclic_mod
from . import czindex, energy, models, trees
from . import dga as dga_mod
from .errors import BidegreeViolation, DomainError, DSquareNonzero
from .ring import parse_upoly, rat

MACHINE_HEADER = "sftkit.machine/1"

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _emit(args, payload: dict, table_lines):
    if args.format == "machine":
        if not getattr(args, "_header_emitted", False):
            print(MACHINE_HEADER)
            args._header_emitted = True
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in table_lines:
            print(line)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _require(args, command: str, dests) -> None:
    """ValueError naming every option of ``dests`` that was not given."""
    missing = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"{command} needs {' '.join(missing)}")


def _parse_window(text: str):
    """LO..HI as (lo, hi); ValueError unless both are integers and LO <= HI."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        sep = ""
    if not sep or lo > hi:
        raise ValueError(f"window {text!r} is not LO..HI with integers LO <= HI")
    return lo, hi


# cz -------------------------------------------------------------------------


def _cmd_cz(args) -> int:
    if args.rotation is not None:
        value = czindex.cz_rotation(rat(args.rotation), negative_elliptic=args.negative)
        _emit(args, {"op": "rotation", "value": value}, [str(value)])
    elif args.shear is not None:
        blocks, loop_k = args.shear
        value = czindex.rs_shear(blocks, loop_k)
        _emit(args, {"op": "shear", "value": str(value)}, [str(value)])
    elif args.crossing is not None:
        try:
            lam = float(rat(args.crossing))
        except OverflowError:
            raise ValueError(f"--crossing {args.crossing} is too large for a float") from None
        value = czindex.cz_crossing(lambda t: lam * t, subdivisions=args.subdivisions)
        _emit(args, {"op": "crossing", "value": value}, [str(value)])
    elif args.gamma1 is not None:
        p_u, a, base = args.gamma1
        res = czindex.cz_gamma_orbit("gamma1", p_u, a, int(base))
        _emit(args, {"op": "gamma1", "value": res.index, "period": res.period},
              [str(res.index)])
    elif args.gamma2 is not None:
        p_u, a, base, r0, m, n = args.gamma2
        res = czindex.cz_gamma_orbit("gamma2", p_u, a, int(base), (r0, int(m), int(n)))
        _emit(args, {"op": "gamma2", "value": res.index, "period": res.period},
              [str(res.index), f"period {res.period}"])
    elif args.normal is not None:
        data = czindex.normal_index_data(args.normal)
        _emit(args, {"op": "normal", "cz_n": data.cz_n, "p_n": data.p_n,
                     "alpha_minus": data.alpha_minus, "alpha_plus": data.alpha_plus},
              [f"p_n {data.p_n}", f"alpha- {data.alpha_minus}", f"alpha+ {data.alpha_plus}"])
    elif args.sum is not None:
        parts = [int(x) for x in args.sum.split(",") if x]
        value = czindex.cz_direct_sum(parts)
        _emit(args, {"op": "sum", "value": value}, [str(value)])
    else:
        raise ValueError("cz: choose one of --rotation/--shear/--crossing/"
                         "--gamma1/--gamma2/--normal/--sum")
    return EXIT_OK


# trees ------------------------------------------------------------------


def _cmd_trees(args) -> int:
    if args.action == "concat":
        parts = [trees.forest_from_doc(_load_json(p)) for p in args.files]
        matching = []
        for spec_txt in args.match or []:
            out_part, out_edge, in_part, in_edge = _parse_match(spec_txt)
            matching.append(((out_part, out_edge), (in_part, in_edge)))
        forest = trees.concatenate(parts, matching)
        doc = trees.forest_to_doc(forest)
        _emit(args, doc, [json.dumps(doc, sort_keys=True, indent=2)])
        return EXIT_OK

    forest = trees.forest_from_doc(_load_json(args.files[0]))
    if args.action == "intersection":
        value = trees.intersection_number(forest)
        _emit(args, {"op": "intersection", "value": value}, [str(value)])
    elif args.action == "psi":
        value = trees.psi_full(forest)
        _emit(args, {"op": "psi", "value": str(value)}, [str(value)])
    elif args.action == "psi-reduced":
        value = trees.psi_reduced(forest)
        _emit(args, {"op": "psi_reduced", "value": value}, [str(value)])
    elif args.action == "psi-mixed":
        _require(args, "trees psi-mixed", ("r_plus", "r_minus", "energy", "r_min"))
        value = trees.psi_mixed(forest, rat(args.r_plus), rat(args.r_minus),
                                rat(args.energy), rat(args.r_min))
        _emit(args, {"op": "psi_mixed", "value": value}, [str(value)])
    elif args.action == "positivity":
        report = trees.check_positivity(forest)
        payload = {
            "op": "positivity",
            "passed": report.passed,
            "vertex_violations": [list(v) for v in report.vertex_violations],
            "unrepresentable": list(report.unrepresentable),
            "intersection": report.intersection,
            "global_bound": report.global_bound,
        }
        lines = [f"passed {str(report.passed).lower()}",
                 f"intersection {report.intersection} >= bound {report.global_bound}: "
                 f"{str(report.global_ok).lower()}"]
        lines += [f"violation {vid}: s={s} < bound {b}" for vid, b, s in report.vertex_violations]
        _emit(args, payload, lines)
    elif args.action == "aut":
        value = trees.aut_order(forest)
        _emit(args, {"op": "aut", "value": value}, [str(value)])
    elif args.action == "contract":
        if not args.edge:
            raise ValueError("contract needs --edge ID")
        doc = trees.forest_to_doc(trees.contract_edge(forest, args.edge))
        _emit(args, doc, [json.dumps(doc, sort_keys=True, indent=2)])
    elif args.action == "show":
        doc = trees.forest_to_doc(forest)
        _emit(args, doc, [json.dumps(doc, sort_keys=True, indent=2)])
    else:
        raise ValueError(f"unknown trees action {args.action!r}")
    return EXIT_OK


def _parse_match(text: str):
    # "0:out=1:in" pairs part:edge to part:edge
    out_txt, _, in_txt = text.partition("=")
    op, _, oe = out_txt.partition(":")
    ip, _, ie = in_txt.partition(":")
    if not (op and oe and ip and ie):
        raise ValueError(f"bad --match {text!r}; want OUTPART:OUTEDGE=INPART:INEDGE")
    return int(op), oe, int(ip), ie


# energy -----------------------------------------------------------------


def _cmd_energy(args) -> int:
    if args.glue is not None:
        value = energy.glue_energy(rat(args.glue[0]), rat(args.glue[1]),
                                   args.symplectization)
        _emit(args, {"op": "glue", "value": str(value)}, [str(value)])
    elif args.type_a is not None:
        d = energy.TypeADecomposition(rat(args.type_a[0]), rat(args.type_a[1]),
                                      empty_negative_end=args.empty_negative)
        value = energy.type_a_energy(d)
        _emit(args, {"op": "type_a", "value": str(value)}, [str(value)])
    elif args.type_b is not None:
        doc = _load_json(args.type_b)
        try:
            d = energy.TypeBDecomposition([tuple(rat(str(x)) for x in row)
                                           for row in doc["samples"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed samples document: {exc}") from exc
        res = energy.type_b_energy(d)
        _emit(args, {"op": "type_b", "value": str(res.energy),
                     "induced_at_zero": str(res.induced_at_zero),
                     "induced_at_infinity": str(res.induced_at_infinity)},
              [str(res.energy), f"induced-at-zero {res.induced_at_zero}",
               f"induced-at-infinity {res.induced_at_infinity}"])
    elif args.r_plus is not None:
        ok = energy.admissible(rat(args.r_plus), rat(args.r_minus),
                               rat(args.energy), relaxed=args.relaxed)
        _emit(args, {"op": "admissible", "value": ok}, [str(ok).lower()])
    else:
        raise ValueError("energy: choose --r-plus/... or --type-a/--type-b/--glue")
    return EXIT_OK


# dga --------------------------------------------------------------------


def _cmd_dga(args) -> int:
    algebra = dga_mod.dga_from_doc(_load_json(args.file))
    if (args.set_u is None and not args.check and not args.bidegree
            and args.linearize is None and args.homology is None):
        raise ValueError("dga: nothing to do; pass --check/--bidegree/--linearize/"
                         "--homology/--set-u")
    if args.set_u is not None:
        algebra = algebra.evaluate_U(rat(args.set_u))
        doc = dga_mod.dga_to_doc(algebra)
        _emit(args, doc, [json.dumps(doc, sort_keys=True, indent=2)])
    if args.check:
        residues = algebra.check_d_squared()
        if residues:
            name, residue = residues[0]
            raise DSquareNonzero(f"d^2({name}) = {residue}")
        _emit(args, {"op": "check", "value": True}, ["d^2 = 0"])
    if args.bidegree:
        problems = algebra.check_bidegree()
        if problems:
            raise BidegreeViolation(problems[0])
        _emit(args, {"op": "bidegree", "value": True}, ["bidegree (-1, 0)"])
    cx = None
    if args.linearize is not None:
        eps = _load_eps(args.linearize)
        cx = dga_mod.linearize(algebra, dga_mod.augment(algebra, eps))
        if args.homology is None:
            payload = {"op": "linearize",
                       "basis": {str(k): list(v) for k, v in cx.basis.items()}}
            _emit(args, payload, [f"deg {k}: " + (" ".join(v) if v else "-")
                                  for k, v in sorted(cx.basis.items())])
    if args.homology is not None:
        lo, hi = _parse_window(args.homology)
        if cx is None:
            # enumerate one degree below and one above the window, so that
            # both d_lo and d_{hi+1} are stored
            cx = dga_mod.word_complex(algebra, max(lo - 1, 0), hi + 1)
        _emit_homology(args, dga_mod.homology(cx, lo, hi), lo, hi, "homology", "H")
    return EXIT_OK


def _load_eps(spec_txt: str) -> dict:
    """The augmentation values of a JSON file, or none for ``zero``; ``augment``
    then coerces each one into the algebra's ring."""
    if spec_txt == "zero":
        return {}
    doc = _load_json(spec_txt)
    if not isinstance(doc, dict):
        raise ValueError("malformed augmentation document: not a JSON object")
    return {name: parse_upoly(str(value)) for name, value in doc.items()}


def _emit_homology(args, summary, lo, hi, op, prefix) -> None:
    payload = {"op": op, "ranks": {}}
    lines = []
    for k in range(lo, hi + 1):
        s = summary[k]
        torsion = [str(t) for t in s.torsion]
        payload["ranks"][str(k)] = {"free": s.free_rank, "torsion": torsion}
        lines.append(f"{prefix}_{k}: rank {s.free_rank}"
                     + "".join(f" + tors({t})" for t in torsion))
    _emit(args, payload, lines)


# cyclic -----------------------------------------------------------------


def _cmd_cyclic(args) -> int:
    algebra = dga_mod.dga_from_doc(_load_json(args.file))
    lo, hi = _parse_window(args.window)
    summary = cyclic_mod.reduced_cyclic_homology(algebra, lo, hi, link=args.link)
    _emit_homology(args, summary, lo, hi, "cyclic", "HC")
    return EXIT_OK


# model ------------------------------------------------------------------


# the options each model action reads that have no default
_MODEL_NEEDS = {"orbits": ("n", "a", "N"), "chords": ("n",), "ranks": ("n", "N"), "hc": ("n",),
                "cone": ("k", "n", "top"), "parity": ("n", "a", "N"), "bound": ("a",)}


def _cmd_model(args) -> int:
    _require(args, f"model {args.model_action}", _MODEL_NEEDS.get(args.model_action, ()))
    if args.model_action in ("orbits", "chords"):
        # the two generator tables differ only in the cz column
        with_cz = args.model_action == "orbits"
        if with_cz:
            params = models.ModelParams(n=args.n, a=args.a, N=args.N, rho=args.rho)
            table = models.model_orbits(params)
        else:
            table = models.model_chords(args.n, args.max_link)
        cz_head = f" {'cz':>4}" if with_cz else ""
        rows = []
        lines = [f"{'family':<8} {'k':>3}{cz_head} {'deg':>4} {'link':>4}  name"]
        for r in table:
            g = r.generator
            row = {"family": r.family, "cover": r.cover, "name": g.name,
                   "deg": g.degree, "link": g.link}
            cz_cell = ""
            if with_cz:
                row["cz"] = r.cz
                cz_cell = f" {r.cz:>4}"
            rows.append(row)
            lines.append(f"{r.family:<8} {r.cover:>3}{cz_cell} {g.degree:>4} "
                         f"{g.link:>4}  {g.name}")
        _emit(args, {"op": args.model_action, "rows": rows}, lines)
    elif args.model_action == "ranks":
        table = models.linearized_ranks(args.n, args.N)
        payload = {"op": "ranks", "ranks": {str(k): v for k, v in table.items()}}
        lines = [f"{'k':>3}  rank"]
        for k in sorted(table):
            label = {0: "0", 1: "Q", 2: "Q+Q"}[table[k]]
            lines.append(f"{k:>3}  {label}")
        _emit(args, payload, lines)
    elif args.model_action == "hc":
        res = models.hc_window(args.n)
        payload = {"op": "hc", "bidegree": list(res.bidegree), "rank": res.rank,
                   "representative": list(res.representative or ()),
                   "neighbors": {str(k): v for k, v in sorted(res.neighbor_ranks.items())}}
        lines = [f"rank {res.rank} at bidegree ({res.bidegree[0]}, {res.bidegree[1]})",
                 f"class {'*'.join(res.representative or ('-',))}"]
        lines += [f"bidegree ({k}, 2): rank {v}" for k, v in sorted(res.neighbor_ranks.items())]
        _emit(args, payload, lines)
    elif args.model_action == "cone":
        table = models.surgery_cone_ranks(args.k, args.n, args.top)
        payload = {"op": "cone", "ranks": {str(k): v for k, v in table.items()}}
        lines = [f"{'deg':>4}  rank"]
        for k in sorted(table):
            lines.append(f"{k:>4}  {'Q' if table[k] else '0'}")
        _emit(args, payload, lines)
    elif args.model_action == "parity":
        params = models.ModelParams(n=args.n, a=args.a, N=args.N, rho=args.rho)
        table = models.model_orbits(params)
        report = models.parity_obstruction(args.n, table)
        payload = {"op": "parity", "passed": report.passed,
                   "modulus": report.modulus,
                   "failures": list(report.congruence_failures),
                   "differential_vanishes": report.differential_vanishes}
        lines = [f"congruence mod {report.modulus}: "
                 f"{'pass' if not report.congruence_failures else 'fail'}",
                 f"window differential vanishes: {str(report.differential_vanishes).lower()}"]
        _emit(args, payload, lines)
    elif args.model_action == "bound":
        value = models.interior_orbit_bound(args.a, args.rho)
        _emit(args, {"op": "bound", "value": value}, [str(value)])
    else:
        raise ValueError(f"unknown model action {args.model_action!r}")
    return EXIT_OK


# parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are parse failures (exit 1), not domain errors.  A
    word such as -1/2, -1e100 or -.5e-3 is a negative value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves no
    state on it, so every call to ``main`` reuses it."""
    parser = _Parser(prog="sftkit", description=__doc__)
    parser.add_argument("--format", choices=("table", "machine"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    cz = sub.add_parser("cz", help="index calculators")
    cz.add_argument("--rotation", type=str)
    cz.add_argument("--negative", action="store_true")
    cz.add_argument("--shear", nargs=2, type=int, metavar=("BLOCKS", "LOOPK"))
    cz.add_argument("--crossing", type=str)
    cz.add_argument("--subdivisions", type=int, default=256)
    cz.add_argument("--gamma1", nargs=3, type=float, metavar=("P_U", "A", "CZBASE"))
    cz.add_argument("--gamma2", nargs=6, type=float,
                    metavar=("P_U", "A", "CZBASE", "R0", "M", "N"))
    cz.add_argument("--normal", type=int)
    cz.add_argument("--sum", type=str)
    cz.set_defaults(func=_cmd_cz)

    tr = sub.add_parser("trees", help="decorated forest operations")
    tr.add_argument("action", choices=("intersection", "psi", "psi-reduced", "psi-mixed",
                                       "positivity", "aut", "contract", "concat", "show"))
    tr.add_argument("files", nargs="+")
    tr.add_argument("--edge")
    tr.add_argument("--match", action="append")
    tr.add_argument("--r-plus", dest="r_plus", type=str)
    tr.add_argument("--r-minus", dest="r_minus", type=str)
    tr.add_argument("--energy", type=str)
    tr.add_argument("--r-min", dest="r_min", type=str)
    tr.set_defaults(func=_cmd_trees)

    en = sub.add_parser("energy", help="decomposition energies and admissibility")
    en.add_argument("--r-plus", dest="r_plus", type=str)
    en.add_argument("--r-minus", dest="r_minus", type=str, default="0")
    en.add_argument("--energy", type=str, default="0")
    en.add_argument("--relaxed", action="store_true")
    en.add_argument("--type-a", dest="type_a", nargs=2, type=str,
                    metavar=("CMINUS", "CPLUS"))
    en.add_argument("--empty-negative", dest="empty_negative", action="store_true")
    en.add_argument("--type-b", dest="type_b")
    en.add_argument("--glue", nargs=2, type=str, metavar=("E1", "E2"))
    en.add_argument("--symplectization", action="store_true")
    en.set_defaults(func=_cmd_energy)

    dg = sub.add_parser("dga", help="dg-algebra checks and homology")
    dg.add_argument("file")
    dg.add_argument("--check", action="store_true")
    dg.add_argument("--bidegree", action="store_true")
    dg.add_argument("--linearize", metavar="EPS")
    dg.add_argument("--homology", metavar="LO..HI")
    dg.add_argument("--set-u", dest="set_u", metavar="S")
    dg.set_defaults(func=_cmd_dga)

    cy = sub.add_parser("cyclic", help="reduced cyclic homology")
    cy.add_argument("file")
    cy.add_argument("--window", required=True, metavar="LO..HI")
    cy.add_argument("--link", type=int)
    cy.set_defaults(func=_cmd_cyclic)

    mo = sub.add_parser("model", help="open-book model tables")
    mo.add_argument("model_action", choices=("orbits", "chords", "ranks", "hc",
                                             "cone", "parity", "bound"))
    mo.add_argument("--n", type=int)
    mo.add_argument("--a", type=float)
    mo.add_argument("--N", type=int)
    mo.add_argument("--rho", type=float, default=3.141592653589793)
    mo.add_argument("--max-link", dest="max_link", type=int, default=2)
    mo.add_argument("--k", type=int)
    mo.add_argument("--top", type=int)
    mo.set_defaults(func=_cmd_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
