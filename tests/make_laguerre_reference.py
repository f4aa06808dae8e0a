"""Write laguerre_64.json: the 64-point Gauss-Laguerre rule at 60 digits.

    python tests/make_laguerre_reference.py

Each node is a root of L_64, found by Newton's method in mpmath from numpy's
``laggauss`` estimate with x L_n' = n (L_n - L_{n-1}); each weight is
x / ((n + 1) L_{n+1}(x))^2, a formula independent of the Christoffel sums
that ``kstruve.transforms._laguerre_rule`` uses.  Values are stored as
30-digit strings.
"""

import json
import os

import mpmath as mp
import numpy as np

N = 64


def main() -> None:
    mp.mp.dps = 60
    nodes, weights = [], []
    for guess in np.polynomial.laguerre.laggauss(N)[0]:
        x = mp.mpf(float(guess))
        for _ in range(100):
            step = x * mp.laguerre(N, 0, x) / (N * (mp.laguerre(N, 0, x) - mp.laguerre(N - 1, 0, x)))
            x -= step
            if abs(step) < mp.mpf(10) ** -55 * x:
                break
        nodes.append(x)
        weights.append(x / ((N + 1) * mp.laguerre(N + 1, 0, x)) ** 2)
    assert abs(mp.fsum(weights) - 1) < mp.mpf(10) ** -50
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "laguerre_64.json")
    with open(path, "w") as out:
        json.dump({"nodes": [mp.nstr(x, 30) for x in nodes],
                   "weights": [mp.nstr(w, 30) for w in weights]}, out, indent=0)
        out.write("\n")


if __name__ == "__main__":
    main()
