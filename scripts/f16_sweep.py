#!/usr/bin/env python3
"""Check the executor's binary16 round against numpy's on every float32.

    python scripts/f16_sweep.py

Runs `executor._f16` and `x.astype(np.float16).astype(np.float32)` on all
2**32 float32 bit patterns, CHUNK patterns at a time, and counts the
patterns whose results differ: a different bit pattern, or a non-NaN where
numpy gives NaN (NaN payloads are not compared). It also counts the
patterns in each of the round's three ranges, told apart on the input bits:
the bit formula (zeros and 2**-14 <= |x| < 65520), the 2**-24 grid
(0 < |x| < 2**-14) and astype (|x| >= 65520, inf and NaN). Exits 1 when
any pattern differs. Takes about 15 minutes on one core of a 2-vCPU
AVX-512 host.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from jetforge import executor  # noqa: E402

CHUNK = 2**22


def main() -> int:
    mismatches, first = 0, None
    ranges = {"bit formula": 0, "2**-24 grid": 0, "astype": 0}
    for start in range(0, 1 << 32, CHUNK):
        bits = np.arange(start, start + CHUNK, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            want = x.astype(np.float16).astype(np.float32)
            got = executor._f16(x)
        nan = np.isnan(want)
        bad = np.flatnonzero(np.where(nan, ~np.isnan(got),
                                      got.view(np.uint32) != want.view(np.uint32)))
        if bad.size and first is None:
            first = int(bits[bad[0]])
        mismatches += bad.size
        mag = bits & 0x7FFFFFFF
        big = int(np.count_nonzero(mag >= executor._F16_OVERFLOW))
        small = int(np.count_nonzero((mag > 0) & (mag < executor._F16_MIN_NORMAL)))
        ranges["astype"] += big
        ranges["2**-24 grid"] += small
        ranges["bit formula"] += CHUNK - big - small
    for name, count in ranges.items():
        print(f"{name}: {count} patterns")
    print(f"checked {1 << 32} float32 patterns: {mismatches} mismatches"
          + ("" if first is None else f" (first {first:#010x})"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
