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


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record()
