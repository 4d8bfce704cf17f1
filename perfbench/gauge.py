"""Fixed pure-Python work in a fresh process: the benchmark's speed gauge.

    python3 perfbench/gauge.py

It never imports `microset`, so no change to the program moves its time.
Like the program, it spends its time on `Fraction` box gaps, small tuples
and JSON text.  `run.py` runs it between jobs and divides round times by
its median time, which cancels most of the drift of a shared machine.
"""

import json
import sys
from fractions import Fraction

BOXES = 80


def work(count: int) -> int:
    boxes = [[(Fraction(i * 7 % 97, 291), Fraction(i * 7 % 97 + 1, 291)) for i in range(j, j + 2)] for j in range(count)]
    touching = 0
    for a in boxes:
        for b in boxes:
            total = Fraction(0)
            for (alo, ahi), (blo, bhi) in zip(a, b):
                gap = max(blo - ahi, alo - bhi)
                if gap > 0:
                    total += gap * gap
            touching += total == 0
    return touching + len(json.dumps([[f"{lo.numerator}/{lo.denominator}" for lo, _ in box] for box in boxes]))


if __name__ == "__main__":
    sys.exit(0 if work(BOXES) > 0 else 1)
