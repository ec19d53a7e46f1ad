"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at a tiny size with all checks passing, and every check
rejects a deliberately corrupted answer, so that no check passes vacuously.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def smoke(name, tmp_path):
    return workloads.build(name, 3, run.ROOT, tmp_path, smoke=True)


def _mutate(obj):
    """The same JSON value with one scalar changed."""
    if isinstance(obj, dict):
        key = "value" if "value" in obj else sorted(k for k in obj if k != "op")[0]
        return {**obj, key: _mutate(obj[key])}
    if isinstance(obj, list):
        return [_mutate(obj[0])] + obj[1:] if obj else [1]
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, int):
        return obj + 1
    return obj + "x"


def corruptions(digest):
    """Wrong answers derived from a correct digest."""
    if isinstance(digest[0], tuple) and len(digest) == 2 and isinstance(digest[1], bool):
        factors, certified = digest  # Smith form
        wrong_factor = factors[:-1] + ((1,) + factors[-1],) if factors else ((1, 1),)
        return [(wrong_factor, certified), (factors, False)]
    if isinstance(digest[0], int) and isinstance(digest[1], str):
        code, text = digest  # command line
        header, _, body = text.partition("\n")
        bad = json.dumps(_mutate(json.loads(body)), sort_keys=True, separators=(",", ":"))
        return [(code, f"{header}\n{bad}\n"), (2, text)]
    if isinstance(digest[0], int):
        rank, rep, neighbors = digest  # hc_window
        return [(rank + 1, rep, neighbors), (rank, ("a1", "a1"), neighbors)]
    degrees = dict(digest)  # homology summary
    out = []
    k, (free, torsion) = max(degrees.items())
    out.append(tuple({**degrees, k: (free + 1, torsion)}.items()))
    with_torsion = [d for d, (_, t) in degrees.items() if t]
    if with_torsion:
        d = with_torsion[0]
        free, torsion = degrees[d]
        wrong = ((1, 1),) + torsion[1:]  # U + 1 in place of the first factor
        out.append(tuple({**degrees, d: (free, wrong)}.items()))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_size_passes_every_check(name, tmp_path):
    wl = smoke(name, tmp_path)
    samples, rounds, digests, peak_rss_mb = run.measure(wl, 0.0)
    assert len(rounds) == 1
    assert run.check(wl, digests) == (0, 0)
    assert wl.top in samples and peak_rss_mb > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_check_rejects_a_corrupted_answer(name, tmp_path):
    wl = smoke(name, tmp_path)
    for job in wl.jobs:
        good = job.digest(job.run())
        assert job.check(good) is None, job.name
        for bad in corruptions(good):
            assert job.check(bad) is not None, (job.name, bad)


def test_torsion_is_checked_on_a_case_that_has_torsion(tmp_path):
    wl = smoke("homology_qu", tmp_path)
    job = next(j for j in wl.jobs if j.name.startswith("u_exact_pair"))
    assert any(t for _, (_, t) in job.digest(job.run()))


def test_sympy_ranks_see_the_boundaries(tmp_path):
    from sftkit import cyclic, dga

    algebra = dga.dga_from_doc(json.loads((run.ROOT / "tests/data/exact_pair.json").read_text()))
    cx = cyclic.cyclic_complex(algebra, 0, 6)
    assert oracles.free_ranks_q(cx, 0, 6) == {k: 0 for k in range(7)}
    assert any(oracles.q_rank(oracles.boundary_rows(cx, k)) for k in range(1, 8))


def test_changed_output_and_raised_operations_are_counted(tmp_path):
    wl = smoke("hc_window", tmp_path)
    digests = {j.name: Counter({j.digest(j.run()): 1}) for j in wl.jobs}
    job = wl.jobs[0]
    good = next(iter(digests[job.name]))
    other = (good[0], good[1], ())
    digests[job.name] = Counter({good: 2, other: 1, run.Raised("ValueError: x"): 1})
    assert run.check(wl, digests) == (2, 1)  # one raised, one changed output
