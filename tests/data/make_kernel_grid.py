"""Freeze reference values of the distribution kernels into kernel_grid.json.

Run ``python tests/data/make_kernel_grid.py`` from the repository root. It
needs scipy (the ``test`` extra); pytest does not collect it. The values come
from ``scipy.special.stdtr``, ``stdtrit`` and ``ndtri``, whose smaller t tail
agrees with 40-digit mpmath to about 1e-14 relative on this grid, and are
checked by ``tests/test_kernel_grid.py``.

The grid spans df from 1 to 1e5 (integer, half-integer and real-valued) and
tail probabilities from 1e-12 to 1/2, both signs of x.
"""

import json
from pathlib import Path

import numpy as np
import scipy
from scipy import special

OUT = Path(__file__).resolve().parent / "kernel_grid.json"

INTEGER_DF = (1, 2, 3, 4, 5, 6, 8, 10, 13, 20, 30, 45, 60, 100, 150, 300, 548, 1000,
              2500, 5000, 10_000, 20_000, 50_000, 100_000)
HALF_DF = (1.5, 2.5, 3.5, 5.5, 14.5, 29.5, 30.5, 99.5)
REAL_DF = (1.3, 2.7, 4.41, 11.93, 17.83, 28.6, 31.2, 63.2, 548.7, 977.25, 3721.9, 23456.7)
# tail probabilities that place x for the CDF points
CDF_TAILS = np.logspace(-12, np.log10(0.45), 12)
SMALL_X = (-0.2, -1e-3, 1e-3, 0.2)
# lower-tail probabilities for the quantile points; 1 - p gives the upper ones
QUANTILE_TAILS = np.logspace(-12, np.log10(0.4), 9)
CENTRAL_Q = (0.025, 0.5, 0.975)
NORMAL_TAILS = np.logspace(-300, np.log10(0.49), 60)
NORMAL_CENTRAL = np.linspace(0.02, 0.98, 25)


def main() -> None:
    t_cdf, t_quantile = [], []
    for df in INTEGER_DF + HALF_DF + REAL_DF:
        df = float(df)
        xs = [float(special.stdtrit(df, p)) for p in CDF_TAILS]
        for x in [*xs, *(-x for x in xs), *SMALL_X]:
            t_cdf.append([x, df, float(special.stdtr(df, x)), float(special.stdtr(df, -abs(x)))])
        qs = [float(p) for p in QUANTILE_TAILS]
        for q in [*qs, *(1.0 - q for q in qs), *CENTRAL_Q]:
            t_quantile.append([q, df, float(special.stdtrit(df, q))])
    qs = [float(p) for p in NORMAL_TAILS]
    normal_quantile = [[q, float(special.ndtri(q))]
                       for q in [*qs, *(1.0 - q for q in qs if q > 1e-16), *map(float, NORMAL_CENTRAL)]]
    grid = {"t_cdf": t_cdf, "t_quantile": t_quantile, "normal_quantile": normal_quantile}
    # one point per line keeps the file small and its diffs readable
    parts = [f'{{\n"scipy": {json.dumps(scipy.__version__)}']
    for name, points in grid.items():
        rows = ",\n".join(json.dumps(point) for point in points)
        parts.append(f'"{name}": [\n{rows}\n]')
    OUT.write_text(",\n".join(parts) + "\n}\n", encoding="utf-8")
    print(f"{OUT}: {len(t_cdf)} t_cdf, {len(t_quantile)} t_quantile, "
          f"{len(normal_quantile)} normal_quantile points")


if __name__ == "__main__":
    main()
