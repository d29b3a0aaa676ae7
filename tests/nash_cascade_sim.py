"""A toy rainfall-runoff model behind the external-simulator protocol.

Run in an exchange directory, it reads the runoff coefficient c, the storage
constant K (hours) and the reservoir count n of a Nash cascade from input.csv,
routes a fixed-seed hourly rainfall series through the cascade's gamma unit
hydrograph (t/K)^(n-1) exp(-t/K) / (K Gamma(n)), scales the flow by c and
writes the L hourly values to output.csv with the hours 0..L-1 as t.
"""
import math

import numpy as np

L = 2000
SEED = 20200601


def rainfall() -> np.ndarray:
    """L hours of intermittent rain: a gamma-distributed depth in about one hour of five."""
    rng = np.random.default_rng(SEED)
    return rng.gamma(0.4, 5.0, L) * (rng.random(L) < 0.2)


def runoff(c: float, K: float, n: float) -> np.ndarray:
    t = np.arange(L, dtype=float)
    hydrograph = (t / K) ** (n - 1) * np.exp(-t / K) / (K * math.gamma(n))
    return c * np.convolve(rainfall(), hydrograph)[:L]


if __name__ == "__main__":
    c, K, n = np.loadtxt("input.csv", delimiter=",", skiprows=1)
    with open("output.csv", "w") as fh:
        fh.write("t,value\n")
        fh.writelines(f"{t},{q!r}\n" for t, q in enumerate(runoff(c, K, n).tolist()))
