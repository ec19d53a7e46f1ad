import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sftkit.cli import MACHINE_HEADER, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout):
    cmd = [sys.executable, "-m", "sftkit.cli", *argv]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


def test_import_loads_every_layer_and_no_mpmath():
    code = ("import sys, sftkit.cli; "
            "layers = ('czindex', 'energy', 'trees', 'models'); "
            "print('mpmath' in sys.modules, all('sftkit.' + m in sys.modules for m in layers))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env, check=True).stdout
    assert out == "False True\n"


def machine_payload(out: str) -> dict:
    header, _, body = out.partition("\n")
    assert header == MACHINE_HEADER
    return json.loads(body)


def test_cz_rotation(capsys):
    code, out, _ = run_cli(capsys, "cz", "--rotation", "1.3")
    assert code == 0 and out == "3\n"


def test_cz_rotation_machine(capsys):
    code, out, _ = run_cli(capsys, "--format", "machine", "cz", "--rotation", "1.3")
    assert code == 0
    assert machine_payload(out) == {"op": "rotation", "value": 3}


def test_cz_degenerate_exit_code(capsys):
    code, _, err = run_cli(capsys, "cz", "--rotation", "2")
    assert code == 2
    assert "DegeneratePath" in err


def test_cz_shear_and_sum(capsys):
    code, out, _ = run_cli(capsys, "cz", "--shear", "3", "2")
    assert code == 0 and out == "11/2\n"
    code, out, _ = run_cli(capsys, "cz", "--sum", "3,2")
    assert code == 0 and out == "5\n"


def test_energy_admissible(capsys):
    code, out, _ = run_cli(capsys, "energy", "--r-plus", "2", "--r-minus", "1",
                           "--energy", "1/2")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "energy", "--r-plus", "1", "--r-minus", "1",
                           "--energy", "0", "--relaxed")
    assert code == 0 and out == "true\n"


def test_energy_glue_refusal(capsys):
    code, _, err = run_cli(capsys, "energy", "--glue", "0.3", "0.4")
    assert code == 2 and "NotSupported" in err


def test_dga_check_broken_names_generator(capsys):
    code, _, err = run_cli(capsys, "dga", str(DATA / "broken.json"), "--check")
    assert code == 2
    assert "d^2(a)" in err


def test_dga_check_good(capsys):
    code, out, _ = run_cli(capsys, "dga", str(DATA / "orbit_qu.json"),
                           "--check", "--bidegree")
    assert code == 0
    assert "d^2 = 0" in out and "bidegree" in out


def test_dga_homology_window(capsys):
    code, out, _ = run_cli(capsys, "dga", str(DATA / "exact_pair.json"),
                           "--homology", "0..4")
    assert code == 0
    assert out.splitlines() == [
        "H_0: rank 1", "H_1: rank 0", "H_2: rank 0", "H_3: rank 0", "H_4: rank 0",
    ]


def test_dga_linearize_with_homology(capsys):
    code, out, _ = run_cli(capsys, "dga", str(DATA / "exact_pair.json"),
                           "--linearize", "zero", "--homology", "1..2")
    assert code == 0
    assert out.splitlines() == ["H_1: rank 0", "H_2: rank 0"]


def test_dga_set_u_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--format", "machine", "dga",
                           str(DATA / "orbit_qu.json"), "--set-u", "0")
    assert code == 0
    payload = machine_payload(out)
    assert payload["ring"] == "Q"
    from sftkit.dga import dga_from_doc

    evaluated = dga_from_doc(payload)
    assert evaluated.d_of_generator("r").is_zero()


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "dga", "/does/not/exist.json", "--check")
    assert code == 1 and err


def test_unknown_flag_is_parse_error(capsys):
    code, _, err = run_cli(capsys, "cz", "--no-such-flag")
    assert code == 1 and err


@pytest.mark.parametrize("window", ["5..3", "3", "3..", "..3", "1..x", "1..3..5"])
@pytest.mark.parametrize("command", [
    ["cyclic", "--window"],
    ["dga", "--homology"],
    ["dga", "--linearize", "zero", "--homology"],
])
def test_empty_or_malformed_window_is_refused(capsys, command, window):
    # A reversed window used to print nothing and exit 0.
    head, *flags = command
    code, out, err = run_cli(capsys, head, str(DATA / "exact_pair.json"), *flags, window)
    assert code == 1 and out == ""
    assert f"window {window!r}" in err and "LO..HI" in err and "LO <= HI" in err


def test_one_degree_window(capsys):
    code, out, _ = run_cli(capsys, "cyclic", str(DATA / "acyclic_unit.json"), "--window", "3..3")
    assert code == 0 and out == "HC_3: rank 1\n"


def test_cyclic_window(capsys):
    code, out, _ = run_cli(capsys, "cyclic", str(DATA / "acyclic_unit.json"),
                           "--window", "1..5")
    assert code == 0
    assert out.splitlines() == [
        "HC_1: rank 1", "HC_2: rank 0", "HC_3: rank 1", "HC_4: rank 0", "HC_5: rank 1",
    ]


def test_cyclic_oversized_window_is_refused_quickly():
    # Word counts grow like the Fibonacci numbers; the predicted basis size
    # must refuse the window up front (exit 2) instead of enumerating it.
    proc = run_subprocess("cyclic", str(DATA / "exact_pair.json"), "--window", "0..40",
                          timeout=5)
    assert proc.returncode == 2
    assert "TooLarge" in proc.stderr and "degree 23" in proc.stderr


def test_dga_homology_refuses_nonzero_d_squared(capsys):
    code, out, err = run_cli(capsys, "--format", "machine", "dga", str(DATA / "broken.json"),
                             "--homology", "0..5")
    assert code == 2
    assert "DSquareNonzero" in err
    assert "ranks" not in out and "free" not in out


def test_cyclic_deep_window_is_refused_quickly():
    # One degree-1 generator gives 1101-letter words; the word recursion
    # would pass Python's frame limit.
    proc = run_subprocess("cyclic", str(DATA / "acyclic_unit.json"), "--window", "1100..1100",
                          timeout=5)
    assert proc.returncode == 2
    assert "TooLarge" in proc.stderr and "length 1101" in proc.stderr


def test_dga_deep_homology_window_is_refused_quickly():
    proc = run_subprocess("dga", str(DATA / "acyclic_unit.json"), "--homology", "1100..1100",
                          timeout=5)
    assert proc.returncode == 2
    assert "TooLarge" in proc.stderr and "length 1101" in proc.stderr


def test_dga_oversized_homology_window_is_refused_quickly():
    # Word counts grow like the Fibonacci numbers: degree 17 has 2584 words.
    proc = run_subprocess("dga", str(DATA / "exact_pair.json"), "--homology", "0..40",
                          timeout=5)
    assert proc.returncode == 2
    assert "TooLarge" in proc.stderr and "degree 17 has 2584 words" in proc.stderr


def test_dga_largest_homology_window_under_the_limit(capsys):
    # 0..15 enumerates degrees up to 16 (1597 words); the algebra is acyclic
    # but for the unit.
    code, out, _ = run_cli(capsys, "--format", "machine", "dga", str(DATA / "exact_pair.json"),
                           "--homology", "0..15")
    assert code == 0
    ranks = machine_payload(out)["ranks"]
    assert {int(k): r["free"] for k, r in ranks.items()} == {k: int(k == 0) for k in range(16)}


WINDOW_DOCS = ("acyclic_unit", "broken", "exact_pair", "koszul_q", "legendrian_q", "orbit_qu")


@pytest.mark.parametrize("doc", WINDOW_DOCS)
def test_dga_homology_window_is_a_slice_of_the_window_from_zero(capsys, doc):
    # d_LO must be stored however high the window starts, or H_LO reads too big
    path = str(DATA / f"{doc}.json")
    full_code, full_out, _ = run_cli(capsys, "--format", "machine", "dga", path,
                                     "--homology", "0..7")
    full = machine_payload(full_out)["ranks"] if full_code == 0 else None
    for lo in (1, 2, 3):
        code, out, _ = run_cli(capsys, "--format", "machine", "dga", path,
                               "--homology", f"{lo}..7")
        assert code == full_code
        if code == 0:
            want = {str(k): full[str(k)] for k in range(lo, 8)}
            assert machine_payload(out) == {"op": "homology", "ranks": want}, lo
        else:
            assert out == full_out == ""


NEGATIVE_VALUES = ("-1/2", "-1e100", "-.5e-3", "-2.5", "-7", "-1.5E+2")


@pytest.mark.parametrize("value", NEGATIVE_VALUES)
def test_negative_values_parse_as_separate_arguments(capsys, value):
    forest = str(DATA / "forest_two_level.json")
    for argv in (["energy", "--r-plus", "1", "--r-minus", "1"],
                 ["trees", "psi-mixed", forest, "--r-plus", "10", "--r-minus", "1",
                  "--r-min", "1"]):
        joined = run_cli(capsys, "--format", "machine", *argv, f"--energy={value}")
        separated = run_cli(capsys, "--format", "machine", *argv, "--energy", value)
        assert joined[0] == 0
        assert separated == joined, (argv[0], value)


def test_option_like_energy_is_still_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "energy", "--r-plus", "1", "--energy", "-x")
    assert code == 1 and out == ""
    assert "expected one argument" in err


# d(a) = b + c with |a| = 2, |b| = 1, |c| = 3: the c term is not of degree 1.
OFF_DEGREE = {
    "ring": "Q", "mode": "associative",
    "generators": [{"name": "a", "deg": 2}, {"name": "b", "deg": 1}, {"name": "c", "deg": 3}],
    "differential": {"a": [{"coeff": "1", "word": ["b"]}, {"coeff": "1", "word": ["c"]}]},
}


@pytest.mark.parametrize("argv, message", [
    (["dga", "--homology", "0..3"], "d(a) has the term c outside the next degree down"),
    (["cyclic", "--window", "0..3"], "d(a) has the term c outside the next degree down"),
    (["dga", "--linearize", "zero", "--homology", "0..3"],
     "d(a) has the term c outside the next degree down"),
    (["dga", "--bidegree"], "d(a) has a term of degree 3, wanted 1"),
], ids=["dga-homology", "cyclic", "linearize", "bidegree"])
def test_term_outside_the_next_degree_down_is_refused(tmp_path, capsys, argv, message):
    path = tmp_path / "off_degree.json"
    path.write_text(json.dumps(OFF_DEGREE))
    code, out, err = run_cli(capsys, "--format", "machine", argv[0], str(path), *argv[1:])
    assert code == 2
    assert err == f"error: BidegreeViolation: {message}\n"
    assert "ranks" not in out


def test_cyclic_exact_pair_worst_case_window():
    # The top boundary is 493 x 763; dense elimination over Fractions took
    # about 50 s on it, sparse fraction-free elimination well under a second.
    proc = run_subprocess("--format", "machine", "cyclic", str(DATA / "exact_pair.json"),
                          "--window", "0..19", timeout=20)
    assert proc.returncode == 0
    ranks = machine_payload(proc.stdout)["ranks"]
    assert sorted(ranks, key=int) == [str(k) for k in range(20)]
    assert all(r == {"free": 0, "torsion": []} for r in ranks.values())


def test_model_ranks_table(capsys):
    code, out, _ = run_cli(capsys, "model", "ranks", "--n", "5", "--N", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "rank"]
    table = {int(l.split()[0]): l.split()[1] for l in lines[1:]}
    assert table[6] == "Q+Q" and table[2] == "Q" and table[3] == "0"


def test_model_hc(capsys):
    code, out, _ = run_cli(capsys, "model", "hc", "--n", "4")
    assert code == 0
    assert "rank 1 at bidegree (8, 2)" in out
    assert "class b1*b1" in out


def test_model_odd_dimension_exit(capsys):
    code, _, err = run_cli(capsys, "model", "hc", "--n", "5")
    assert code == 2 and "OddDimension" in err


def test_trees_pipeline(tmp_path, capsys):
    doc = {
        "vertices": [
            {"id": "v1", "level": [0, 0], "s": 2, "representable": True, "ends_in_v": False},
            {"id": "v2", "level": [0, 0], "s": -1, "representable": True, "ends_in_v": True},
        ],
        "edges": [
            {"id": "in", "src": None, "dst": "v1",
             "orbit": {"name": "h", "in_v": False, "p_n": 0, "period": 1.0, "link": None, "level": 0}},
            {"id": "mid", "src": "v1", "dst": "v2",
             "orbit": {"name": "g", "in_v": True, "p_n": 1, "period": 1.0, "link": None, "level": 0}},
            {"id": "out", "src": "v2", "dst": None,
             "orbit": {"name": "g", "in_v": True, "p_n": 1, "period": 1.0, "link": None, "level": 0}},
        ],
    }
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "trees", "intersection", str(path))
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(capsys, "trees", "psi", str(path))
    assert code == 0 and out == "U^3\n"
    code, out, _ = run_cli(capsys, "trees", "psi-reduced", str(path))
    assert code == 0 and out == "0\n"
    code, out, _ = run_cli(capsys, "trees", "aut", str(path))
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "--format", "machine", "trees", "contract",
                           str(path), "--edge", "mid")
    assert code == 0
    payload = machine_payload(out)
    assert len(payload["vertices"]) == 1
    assert payload["vertices"][0]["s"] == 2

    # machine round trip: re-parse and re-emit identical bytes
    from sftkit.trees import forest_from_doc, forest_to_doc

    assert forest_to_doc(forest_from_doc(payload)) == payload


def test_trees_psi_mixed_inadmissible(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "v", "level": [0, 0], "s": 0,
                      "representable": True, "ends_in_v": False}],
        "edges": [{"id": "in", "src": None, "dst": "v",
                   "orbit": {"name": "h", "in_v": False, "p_n": 0,
                             "period": 1.0, "link": None, "level": 0}}],
    }
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "trees", "psi-mixed", str(path),
                           "--r-plus", "1", "--r-minus", "1",
                           "--energy", "0", "--r-min", "10")
    assert code == 2 and "InadmissibleParameters" in err
    code, out, _ = run_cli(capsys, "trees", "psi-mixed", str(path),
                           "--r-plus", "4", "--r-minus", "1",
                           "--energy", "0", "--r-min", "1")
    assert code == 0 and out == "1\n"


def test_cz_crossing_flag(capsys):
    code, out, _ = run_cli(capsys, "cz", "--crossing", "2.4")
    assert code == 0 and out == "5\n"


def test_cz_gamma1_flag(capsys):
    code, out, _ = run_cli(capsys, "cz", "--gamma1", "1", "10", "2")
    assert code == 0 and out == "3\n"


def test_energy_type_a_and_b(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "energy", "--type-a", "7/10", "1/2")
    assert code == 0 and out == "6/5\n"
    samples = tmp_path / "b.json"
    samples.write_text(json.dumps({"samples": [[0, "1/2", 0, 0, "1/2"],
                                               [1, "1/4", 0, 0, "1/4"]]}))
    code, out, _ = run_cli(capsys, "energy", "--type-b", str(samples))
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_dga_linearize_eps_file(tmp_path, capsys):
    doc = {
        "ring": "Q", "mode": "commutative",
        "generators": [
            {"name": "x", "deg": 2, "link": None, "good": True, "kind": "orbit"},
            {"name": "y", "deg": 1, "link": None, "good": True, "kind": "orbit"},
            {"name": "z", "deg": 0, "link": None, "good": True, "kind": "orbit"},
        ],
        "differential": {"x": [{"coeff": "1", "upow": 0, "word": ["y"]},
                               {"coeff": "1", "upow": 0, "word": ["y", "z"]}]},
    }
    algebra = tmp_path / "dga.json"
    algebra.write_text(json.dumps(doc))
    eps = tmp_path / "eps.json"
    eps.write_text(json.dumps({"z": "1"}))
    code, out, _ = run_cli(capsys, "dga", str(algebra),
                           "--linearize", str(eps), "--homology", "1..2")
    assert code == 0
    assert out.splitlines() == ["H_1: rank 0", "H_2: rank 0"]


# d x = U*z - U^2 with |x| = 1, |z| = 0: only eps(z) = U kills the constant term
U_CONSTANT = {
    "ring": "QU", "mode": "commutative",
    "generators": [{"name": "x", "deg": 1}, {"name": "z", "deg": 0}],
    "differential": {"x": [{"coeff": "1", "upow": 1, "word": ["z"]},
                           {"coeff": "-1", "upow": 2, "word": []}]},
}


def test_dga_linearize_qu_eps_file(tmp_path, capsys):
    algebra = tmp_path / "dga.json"
    algebra.write_text(json.dumps(U_CONSTANT))
    eps = tmp_path / "eps.json"
    eps.write_text(json.dumps({"z": "U"}))
    code, out, _ = run_cli(capsys, "dga", str(algebra),
                           "--linearize", str(eps), "--homology", "0..1")
    assert code == 0
    assert out.splitlines() == ["H_0: rank 0 + tors(U)", "H_1: rank 0"]
    code, out, err = run_cli(capsys, "dga", str(algebra),
                             "--linearize", "zero", "--homology", "0..1")
    assert code == 2 and out == ""
    assert err == "error: NotAChainMap: eps(d x) = -U^2 != 0\n"


def test_eps_file_is_read_in_the_algebra_ring(tmp_path, capsys):
    """Every augmentation value is parsed as a polynomial and coerced into the
    algebra's ring: U over Q is refused by name, and decimals in exponent
    form still read as the exact rationals they spell."""
    doc = {**U_CONSTANT, "ring": "Q", "differential": {}}
    algebra = tmp_path / "dga.json"
    algebra.write_text(json.dumps(doc))
    eps = tmp_path / "eps.json"
    eps.write_text(json.dumps({"z": "U"}))
    code, out, err = run_cli(capsys, "dga", str(algebra), "--linearize", str(eps))
    assert (code, out) == (1, "")
    assert err == "error: nonconstant polynomial U over Q\n"
    for value in (1e-05, "2.5e+3", 0.5, -3):
        eps.write_text(json.dumps({"z": value}))
        code, out, _ = run_cli(capsys, "dga", str(algebra), "--linearize", str(eps),
                               "--homology", "0..1")
        assert code == 0
        assert out.splitlines() == ["H_0: rank 1", "H_1: rank 1"]


FOREST = str(DATA / "forest_two_level.json")


@pytest.mark.parametrize("argv, missing", [
    (["model", "orbits"], "model orbits needs --n --a --N"),
    (["model", "orbits", "--n", "5", "--a", "10"], "model orbits needs --N"),
    (["model", "chords"], "model chords needs --n"),
    (["model", "ranks", "--n", "5"], "model ranks needs --N"),
    (["model", "hc"], "model hc needs --n"),
    (["model", "cone", "--k", "2"], "model cone needs --n --top"),
    (["model", "parity", "--a", "12"], "model parity needs --n --N"),
    (["model", "bound"], "model bound needs --a"),
    (["trees", "psi-mixed", FOREST], "trees psi-mixed needs --r-plus --r-minus --energy --r-min"),
    (["trees", "psi-mixed", FOREST, "--r-plus", "10", "--r-minus", "1", "--energy", "1/2"],
     "trees psi-mixed needs --r-min"),
])
def test_missing_option_is_named_with_exit_1(capsys, argv, missing):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {missing}\n")


@pytest.mark.parametrize("argv", [
    ["cz", "--rotation", "1/0"],
    ["energy", "--glue", "1/0", "2"],
    ["energy", "--r-plus", "1/0", "--r-minus", "1", "--energy", "0"],
], ids=["cz-rotation", "energy-glue", "energy-admissible"])
def test_zero_denominator_exits_1_without_traceback(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: zero denominator in '1/0'\n")


@pytest.mark.parametrize("bound", ["-2", "0"])
def test_model_ranks_names_a_nonpositive_window_bound(capsys, bound):
    code, out, err = run_cli(capsys, "model", "ranks", "--n", "5", "--N", bound)
    assert (code, out, err) == (1, "", "error: window bound N must be positive\n")


@pytest.mark.parametrize("argv, message", [
    (["cz", "--gamma1", "1", "inf", "0"], "a and P_U must be positive and finite"),
    (["cz", "--gamma1", "1e308", "1e308", "0"], "value inf is not a finite number"),
    (["cz", "--gamma2", "inf", "10", "3", "0.6", "1", "1"],
     "a and P_U must be positive and finite"),
    (["cz", "--crossing", "1e400"], "--crossing 1e400 is too large for a float"),
], ids=["gamma1-inf", "gamma1-overflow", "gamma2-inf", "crossing-overflow"])
def test_non_finite_cz_input_exits_1_without_traceback(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("doc", [
    [[0, 1, 0, 0, 1]],
    {"samples": [[0, 1, 0, 0]]},
], ids=["list-document", "short-row"])
def test_malformed_type_b_document_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "energy", "--type-b", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed samples document: ")


def test_malformed_augmentation_document_exits_1(tmp_path, capsys):
    eps = tmp_path / "eps.json"
    eps.write_text(json.dumps(["z", 1]))
    code, out, err = run_cli(capsys, "dga", str(DATA / "exact_pair.json"), "--linearize", str(eps))
    assert (code, out, err) == (1, "", "error: malformed augmentation document: "
                                       "not a JSON object\n")


def test_non_integral_upow_exits_1(tmp_path, capsys):
    doc = {**U_CONSTANT, "differential": {"x": [{"coeff": "1", "upow": 1.7, "word": ["z"]}]}}
    path = tmp_path / "dga.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "dga", str(path), "--homology", "0..2")
    assert (code, out) == (1, "")
    assert err == ("error: malformed algebra document: "
                   "'float' object cannot be interpreted as an integer\n")


# two components, chords x: 0 -> 0 and y: 1 -> 1 of degree 1 with dx = dy = 1:
# acyclic, but its word complex has one empty word in degree 0
TWO_LOOPS = {
    "ring": "Q", "mode": "associative", "components": 2,
    "generators": [{"name": "x", "deg": 1, "kind": "chord:0:0"},
                   {"name": "y", "deg": 1, "kind": "chord:1:1"}],
    "differential": {"x": [{"coeff": "1", "word": []}], "y": [{"coeff": "1", "word": []}]},
}


@pytest.mark.parametrize("doc, window, code", [
    (TWO_LOOPS, "0..2", 2), (TWO_LOOPS, "1..2", 2), (TWO_LOOPS, "2..3", 0),
    ("two_chords_q.json", "0..3", 2),
], ids=["loops-0..2", "loops-1..2", "loops-2..3", "two-chords-0..3"])
def test_word_homology_over_several_components_refuses_degree_0(tmp_path, capsys, doc, window,
                                                                 code):
    if isinstance(doc, dict):
        path = tmp_path / "dga.json"
        path.write_text(json.dumps(doc))
    else:
        path = DATA / doc
    got, out, err = run_cli(capsys, "dga", str(path), "--homology", window)
    assert got == code
    if code:
        assert out == "" and err.startswith("error: NotSupported: the word complex over 2 ")
    else:
        assert out.splitlines() == ["H_2: rank 0", "H_3: rank 0"]


def test_bidegree_names_a_term_of_the_wrong_linking_degree(tmp_path, capsys):
    doc = {
        "ring": "Q", "mode": "commutative",
        "generators": [{"name": "x", "deg": 2, "link": 1}, {"name": "y", "deg": 1, "link": 2}],
        "differential": {"x": [{"coeff": "1", "word": ["y"]}]},
    }
    path = tmp_path / "linked.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "dga", str(path), "--bidegree")
    assert code == 2
    assert err == "error: BidegreeViolation: d(x) has a term of linking degree 2, wanted 1\n"


def test_trees_concat_cli(tmp_path, capsys):
    upper = {
        "vertices": [{"id": "u", "level": [0, 0], "s": 1,
                      "representable": True, "ends_in_v": False}],
        "edges": [
            {"id": "in", "src": None, "dst": "u",
             "orbit": {"name": "h", "in_v": False, "p_n": 0, "period": 1.0,
                       "link": None, "level": 0}},
            {"id": "out", "src": "u", "dst": None,
             "orbit": {"name": "g", "in_v": True, "p_n": 1, "period": 1.0,
                       "link": None, "level": 0}},
        ],
    }
    lower = {
        "vertices": [{"id": "w", "level": [0, 0], "s": 0,
                      "representable": True, "ends_in_v": False}],
        "edges": [
            {"id": "root", "src": None, "dst": "w",
             "orbit": {"name": "g", "in_v": True, "p_n": 1, "period": 1.0,
                       "link": None, "level": 0}},
        ],
    }
    up = tmp_path / "up.json"
    low = tmp_path / "low.json"
    up.write_text(json.dumps(upper))
    low.write_text(json.dumps(lower))
    code, out, _ = run_cli(capsys, "--format", "machine", "trees", "concat",
                           str(up), str(low), "--match", "0:out=1:root")
    assert code == 0
    payload = machine_payload(out)
    assert len(payload["vertices"]) == 2
    srcs = {(e["src"], e["dst"]) for e in payload["edges"]}
    assert ("0:u", "1:w") in srcs


def test_model_orbits_cli(capsys):
    code, out, _ = run_cli(capsys, "model", "orbits", "--n", "5", "--a", "200",
                           "--N", "12")
    assert code == 0
    assert out.splitlines()[0].split() == ["family", "k", "cz", "deg", "link", "name"]
    assert any("ga5" in line for line in out.splitlines())


def test_determinism_across_processes():
    argv = ("--format", "machine", "model", "ranks", "--n", "5", "--N", "12")
    first = run_subprocess(*argv, timeout=60)
    second = run_subprocess(*argv, timeout=60)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
