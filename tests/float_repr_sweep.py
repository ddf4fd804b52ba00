"""Compare eit3's float formatter with ``repr`` on many seeded random doubles.

    python tests/float_repr_sweep.py

Draws ``COUNT`` uniformly random 64-bit patterns (every finite double,
subnormal, signed zero, infinity and NaN can appear) in blocks of 10**5,
formats each block with ``eit3._floatrepr.rows_text``, one number a line,
and compares each line with ``repr`` of its number, which is CPython's
own dtoa.  Prints the first numbers that differ and exits 1 if any do.  The
tier-1 suite runs the same comparison on 10**6 numbers; this script is
the longer run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from eit3._floatrepr import rows_text  # noqa: E402

COUNT = 2 * 10**7
SEED = 0
BLOCK = 10**5


def main() -> int:
    rng = np.random.default_rng(SEED)
    wrong = []
    for start in range(0, COUNT, BLOCK):
        size = min(BLOCK, COUNT - start)
        numbers = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
        texts = rows_text(numbers.reshape(-1, 1)).split("\n")
        wrong += [(x.hex(), repr(x), text)
                  for x, text in zip(numbers.tolist(), texts)
                  if repr(x) != text]
    print(f"{COUNT} random doubles, seed {SEED}: "
          f"{len(wrong)} differ from repr")
    for x_hex, want, got in wrong[:20]:
        print(f"  {x_hex}: repr {want}, formatter {got}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
