"""Reference figures: one timing per problem size, to show how each job scales.

    python3 perfbench/sizes.py

Prints one line per size: the job, its size and its wall time in seconds.
Sizes run once each, smallest first; the largest take about 10 s.  The
figures are single measurements, not benchmark results: README.md records
them next to the hardware they were taken on.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sftkit import cyclic, dga, models  # noqa: E402
from sftkit.ring import UPoly  # noqa: E402


def timed(label, fn):
    start = time.perf_counter()
    fn()
    print(f"{label:32s} {time.perf_counter() - start:8.3f}", flush=True)


def main():
    exact = dga.dga_from_doc(json.loads((ROOT / "tests/data/exact_pair.json").read_text()))
    for hi in (13, 15, 17):
        timed(f"cyclic_q exact_pair 0..{hi}", lambda: cyclic.reduced_cyclic_homology(exact, 0, hi))
    for n in (10, 12, 14, 16):
        timed(f"hc_window n={n}", lambda: models.hc_window(n))
    pair = dga.DGA("QU", dga.MODE_ASSOCIATIVE, [dga.Generator("a", 2), dga.Generator("b", 1)],
                   {"a": dga.AlgebraElement("QU", {("b",): UPoly.monomial(1)})})
    for hi in (10, 12, 14):
        timed(f"homology_qu U-exact pair 0..{hi}",
              lambda: dga.homology(cyclic.cyclic_complex(pair, 0, hi), 0, hi))


if __name__ == "__main__":
    main()
