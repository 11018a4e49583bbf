"""A fixed CPU workload that measures how fast the machine runs right now.

The benchmark runs one block per ``PERIOD_S`` of command time, so that
the blocks sample the run evenly in time, and scales its timings by
``REF_BLOCK_S / median(block times of the run)``: a time is reported in
reference seconds, the seconds it would have taken on the machine running
at the speed where one block takes ``REF_BLOCK_S``.  On a shared host the
speed of one core drifts by up to two times over minutes, and the program
slows with it; the block slows the same way, so the ratio stays put while
the raw times do not.  The block imports nothing of ``promil`` and its
inputs are fixed, so a change to the program never moves it.

Its mix follows the program's hot paths: numpy on arrays of a bag's size
(forward pass, sort, binomial-style sums, Adam-like updates), and
Python-level float handling with ``json`` as in the dataset files.
"""

import json
from time import perf_counter

import numpy as np

# Median block time on the reference machine (README.md), a fixed scale:
# changing it rescales every reported time and breaks comparison with
# earlier results.
REF_BLOCK_S = 0.005
PERIOD_S = 0.25
_REPEATS = 10

_rng = np.random.default_rng(20230616)
_X = _rng.normal(size=(30, 2))
_W = _rng.normal(size=2)
_FLOATS = _rng.normal(size=120).tolist()


def _unit():
    w = _W.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for _ in range(8):
        p = 1.0 / (1.0 + np.exp(-(_X @ w + 0.1)))
        s = np.sort(p)
        c = np.cumsum(np.log(np.clip(s, 1e-7, 1.0)))
        g = _X.T @ (p - 0.5) / len(p) + 1e-3 * c[-1]
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 1e-3 * m / (np.sqrt(v) + 1e-8)
    text = json.dumps([round(x, 12) for x in _FLOATS])
    total = sum(json.loads(text))
    return float(w.sum()) + total


def block():
    """Run one calibration block; returns its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(_REPEATS):
        _unit()
    return perf_counter() - t0


class Calibrator:
    """Runs one block per ``PERIOD_S`` of measured program time.

    ``start()`` marks the start of a command; ``tick(exclude)`` runs the
    blocks that have fallen due since the last mark, through ``exclude``
    (which keeps their time out of the caller's timings), and marks again.
    Time between commands is not counted."""

    def __init__(self):
        self.blocks = []
        self._due = PERIOD_S     # the first tick runs a block
        self._mark = perf_counter()

    def start(self):
        self._mark = perf_counter()

    def tick(self, exclude):
        self._due += perf_counter() - self._mark
        while self._due >= PERIOD_S:
            self.blocks.append(exclude(block))
            self._due -= PERIOD_S
        self._mark = perf_counter()
