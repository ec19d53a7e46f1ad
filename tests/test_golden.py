"""Golden check of ``--format machine`` output.

``golden_machine.json`` holds the exit code and stdout of a fixed command set,
run in-process through ``cli.main`` from the repository root.  The test
replays every command and requires byte-identical stdout and the same exit
code, so a refactor cannot change an answer unnoticed.

Regenerate the recording only when an output change is intended, with
``python tests/test_golden.py`` from the repository root, and
say in the change's notes which commands moved.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden_machine.json"
DOCS = ("acyclic_unit", "broken", "exact_pair", "legendrian_q", "orbit_qu")
# torsion_qu has torsion factors that are not powers of U; it is kept out of
# DOCS because its deeper cyclic windows are slow
TORSION = "tests/data/torsion_qu.json"
FOREST = "tests/data/forest_two_level.json"
KOSZUL = "tests/data/koszul_q.json"
TWO_CHORDS = "tests/data/two_chords_q.json"


def commands():
    out = []
    for doc in DOCS:
        path = f"tests/data/{doc}.json"
        for window in ("0..5", "0..9", "1..12"):
            for link in (None, 0, 1, 2):
                extra = [] if link is None else ["--link", str(link)]
                out.append(["cyclic", path, "--window", window, *extra])
        for window in ("0..5", "0..8"):
            out.append(["dga", path, "--homology", window])
            out.append(["dga", path, "--linearize", "zero", "--homology", window])
        out.append(["dga", path, "--check", "--bidegree", "--linearize", "zero"])
    out.append(["dga", "tests/data/orbit_qu.json", "--set-u", "0"])
    out += [["model", "hc", "--n", str(n)] for n in range(4, 13)]
    out.append(["model", "ranks", "--n", "5", "--N", "12"])
    out.append(["model", "cone", "--k", "2", "--n", "5", "--top", "10"])
    out += [
        ["dga", TORSION, "--homology", "0..6"],
        ["dga", TORSION, "--linearize", "zero", "--homology", "0..6"],
        ["cyclic", TORSION, "--window", "0..8"],
        ["cyclic", TORSION, "--window", "1..8", "--link", "0"],
    ]
    out += [
        ["cz", "--rotation", "1.3"],
        ["cz", "--rotation", "1.3", "--negative"],
        ["cz", "--rotation", "0.5", "--negative"],
        ["cz", "--rotation", "2"],
        ["cz", "--shear", "3", "2"],
        ["cz", "--crossing", "2.4"],
        ["cz", "--crossing", "2.4", "--subdivisions", "8"],
        ["cz", "--gamma1", "1", "10", "2"],
        ["cz", "--gamma2", "1", "10.053096491487338", "3", "0.6", "1", "1"],
        ["cz", "--normal", "3"],
        ["cz", "--normal", "-4"],
        ["cz", "--sum", "3,2,-1"],
    ]
    out += [["energy", *flags] for flags in (
        ["--r-plus", "2", "--r-minus", "1", "--energy", "1/2"],
        ["--r-plus", "3/2", "--r-minus", "1", "--energy", "1"],
        ["--r-plus", "1", "--r-minus", "1", "--relaxed"],
        ["--r-plus", "1", "--r-minus", "2", "--relaxed"],
        ["--r-plus", "1", "--r-minus", "1", "--energy", "-1"],
        ["--r-plus", "1/4", "--r-minus", "1", "--energy", "-1"],
        # within 1e-12 of r+ = e r-: refused (exit 2)
        ["--r-plus", "2.718281828459045", "--r-minus", "1", "--energy", "1"],
        ["--r-plus", "2.71828182846", "--r-minus", "1", "--energy", "1"],
        ["--r-plus", "2.718281828461", "--r-minus", "1", "--energy", "1"],
        ["--r-plus", "1e300", "--r-minus", "1", "--energy", "690"],
        ["--r-plus", "1", "--r-minus", "1", "--energy", "-700"],
        ["--r-plus", "1", "--r-minus", "1", "--energy", "1e100"],
        ["--r-plus", "1e-13", "--r-minus", "1", "--energy=-1e100"],
        ["--r-plus", "5", "--r-minus", "0", "--energy", "1000"],
        ["--r-plus", "0", "--r-minus", "1"],
        ["--type-a", "7/10", "1/2"],
        ["--type-a", "0", "5", "--empty-negative"],
        ["--glue", "3/10", "2/5", "--symplectization"],
        ["--glue", "3/10", "2/5"],
    )]
    out += [["trees", action, FOREST] for action in (
        "intersection", "psi", "psi-reduced", "positivity", "aut", "show")]
    out += [
        ["trees", "psi-mixed", FOREST, "--r-plus", "10", "--r-minus", "1",
         "--energy", "1/2", "--r-min", "1"],
        ["trees", "psi-mixed", FOREST, "--r-plus", "3", "--r-minus", "1",
         "--energy", "1/2", "--r-min", "1"],
        ["trees", "contract", FOREST, "--edge", "e2"],
        ["trees", "concat", FOREST, FOREST, "--match", "0:e4=1:e1"],
    ]
    # a*rho/pi within the 1e-9 snap band of an integer, and just outside it
    out += [["model", *flags] for flags in (
        ["orbits", "--n", "5", "--a", "10", "--N", "10"],
        ["orbits", "--n", "5", "--a", "10", "--N", "11"],
        ["orbits", "--n", "5", "--a", "9.99999999", "--N", "10"],
        ["orbits", "--n", "5", "--a", "10", "--N", "10", "--rho", "1e-320"],
        ["chords", "--n", "6", "--max-link", "3"],
        ["parity", "--n", "6", "--a", "12", "--N", "12"],
        ["parity", "--n", "5", "--a", "10", "--N", "10", "--rho", "3.141592653589793"],
        ["bound", "--a", "10", "--rho", "3.141592653589793"],
        ["bound", "--a", "10", "--rho", "3.1415926"],
        ["bound", "--a", "10", "--rho", "3.14159265358"],
        ["bound", "--a", "3", "--rho", "1.0471975511965976"],
        ["bound", "--a", "1e9"],
        ["bound", "--a", "1e-300", "--rho", "1e-10"],
        ["bound", "--a", "inf"],
        ["bound", "--a", "nan"],
    )]
    # d z = x*y + y*x vanishes only through the sign of swapping two odd letters
    out += [
        ["dga", KOSZUL, "--homology", "0..6"],
        ["dga", KOSZUL, "--linearize", "zero", "--homology", "0..6"],
        ["cyclic", KOSZUL, "--window", "0..8"],
    ]
    # windows that start above degree 0 read d_LO from the degree below
    out += [["dga", path, "--homology", "2..8"]
            for path in [f"tests/data/{doc}.json" for doc in DOCS] + [KOSZUL]]
    # chords between two components: a one-letter word closes up only on one
    out += [
        ["cyclic", TWO_CHORDS, "--window", "0..6"],
        ["cyclic", TWO_CHORDS, "--window", "1..8"],
        ["dga", TWO_CHORDS, "--check", "--bidegree"],
    ]
    # a missing option is named (exit 1), not a traceback
    out.append(["model", "hc"])
    return [["--format", "machine", *argv] for argv in out]


def run(argv):
    from sftkit.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue()}


def record():
    os.chdir(ROOT)
    GOLDEN.write_text(json.dumps([run(argv) for argv in commands()], indent=1) + "\n")


def test_machine_output_matches_recording(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == commands()
    for want in recorded:
        assert run(want["argv"]) == want, " ".join(want["argv"])


def test_table_output_shows_recorded_torsion(monkeypatch):
    """Every recorded command exits with its recorded code in table format
    too, and each homology line of the table shows the recorded free rank and
    every recorded torsion factor as ``tors(t)``."""
    monkeypatch.chdir(ROOT)
    with_torsion = 0
    for want in json.loads(GOLDEN.read_text()):
        argv = want["argv"][2:]  # drop "--format machine"
        got = run(["--format", "table", *argv])
        assert got["exit"] == want["exit"], " ".join(argv)
        lines = {line.partition(":")[0]: line for line in got["stdout"].splitlines()}
        docs = [json.loads(doc) for doc in want["stdout"].splitlines()[1:]]
        homology = [doc for doc in docs if doc.get("op") in ("homology", "cyclic")]
        for doc in homology:
            prefix = "HC" if doc["op"] == "cyclic" else "H"
            for k, s in doc["ranks"].items():
                line = lines[f"{prefix}_{k}"]
                assert line == (f"{prefix}_{k}: rank {s['free']}"
                                + "".join(f" + tors({t})" for t in s["torsion"])), " ".join(argv)
        with_torsion += any(s["torsion"] for doc in homology for s in doc["ranks"].values())
    # the orbit_qu and torsion_qu commands over Q[U]
    assert with_torsion == 18


def test_parser_keeps_no_state_between_calls(monkeypatch):
    """``main`` reuses one parser, so every command must print the same bytes
    when run again after a parse failure and a domain error."""
    from sftkit.cli import MACHINE_HEADER, build_parser

    monkeypatch.chdir(ROOT)
    parse_failure = ["--format", "machine", "cz", "--no-such-flag"]
    domain_error = ["--format", "machine", "cz", "--rotation", "2"]
    for want in json.loads(GOLDEN.read_text()):
        first = run(want["argv"])
        assert run(parse_failure)["exit"] == 1
        assert run(domain_error)["exit"] == 2
        assert run(want["argv"]) == first == want, " ".join(want["argv"])

    # an append action starts empty on every call
    concat = ["--format", "machine", "trees", "concat", FOREST, FOREST]
    unmatched = run(concat)
    matched = run([*concat, "--match", "0:e4=1:e1"])
    assert matched["exit"] == 0 and matched == run([*concat, "--match", "0:e4=1:e1"])
    assert run(concat) == unmatched != matched

    # a table command leaves no header state behind for the next machine one
    assert run(["cz", "--rotation", "1.3"])["stdout"] == "3\n"
    machine = run(["--format", "machine", "cz", "--rotation", "1.3"])["stdout"]
    assert machine == MACHINE_HEADER + '\n{"op":"rotation","value":3}\n'
    assert build_parser() is build_parser()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record()
