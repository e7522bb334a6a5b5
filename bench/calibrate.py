"""Host-speed reference computations, timed in every round.

The guest shares its host with others, and its speed for heatlab's kind of
code moves by up to ~1.9x for seconds to minutes at a time (README,
"Noise"). Each round therefore also times a few fixed computations made of
the same kinds of work as the workload's dominant layers, written here with
numpy alone and never calling heatlab. The launcher divides the round's
operation times by how much slower than nominal these ran in that round.

Components (each the median of REPEATS runs):
- ``rotations``: Givens rotations of matrix columns with scalar math in
  between, the pattern of a Householder/QL eigensolver's inner loop;
- ``matmul``: products of dense 256 x 256 matrices, as in a Poisson series;
- ``stream``: elementwise exp and a sum over a 16 MB vector, as in a long
  series summed in chunks;
- ``eig``: LAPACK ``eigvalsh`` of a dense 289 x 289 symmetric matrix.

NOMINAL holds each component's time on the reference machine (README,
"Reference figures") at the tenth percentile of about 300 measurements, as
the host runs when it is lightly loaded; a normalised time is in seconds
at that speed.
"""

import math
import statistics
import time

import numpy as np

REPEATS = 5

NOMINAL = {"rotations": 0.0125, "matmul": 0.0050, "stream": 0.0150,
           "eig": 0.0047}

_RNG = np.random.default_rng(20240601)
_Z = _RNG.standard_normal((60, 60))
_M = _RNG.standard_normal((256, 256)) / 16.0
_V = _RNG.uniform(-1.0, 1.0, size=2_000_000)
_S = _RNG.standard_normal((289, 289))
_S = _S + _S.T


def _rotations() -> None:
    z = _Z.copy()
    n = z.shape[0]
    g = 0.5
    for _ in range(40):
        for i in range(n - 1):
            r = math.hypot(g, 1.0)
            s, c = g / r, 1.0 / r
            col = z[:, i + 1].copy()
            z[:, i + 1] = s * z[:, i] + c * col
            z[:, i] = c * z[:, i] - s * col
            g = (g * 1.618) % 2.0 - 1.0


def _matmul() -> None:
    x = _M
    for _ in range(8):
        x = _M @ x


def _stream() -> None:
    float(np.exp(-_V * _V).sum())


def _eig() -> None:
    np.linalg.eigvalsh(_S)


_COMPONENTS = {"rotations": _rotations, "matmul": _matmul,
               "stream": _stream, "eig": _eig}


def measure(names) -> dict:
    """Median time of each named component over REPEATS runs, taken in
    turn: like an operation, it counts the host's short stalls at their
    usual rate."""
    times = {name: [] for name in names}
    for _ in range(REPEATS):
        for name in names:
            t0 = time.perf_counter()
            _COMPONENTS[name]()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(v) for name, v in times.items()}


def slowdown(before: dict, after: dict) -> float:
    """How much slower than nominal the host ran between two measurements:
    the geometric mean over the components of their mean time / NOMINAL."""
    logs = [math.log((before[name] + after[name]) / (2.0 * NOMINAL[name]))
            for name in before]
    return math.exp(sum(logs) / len(logs))

