"""Pieces shared by the benchmark runner, its worker and the reference generator.

Nothing here imports cliquekit: the inputs a seed selects must not depend on
the code under test.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

CAMPAIGN_N_RANGE = (4, 12)
CAMPAIGN_P_RANGE = (0.2, 0.8)
CAMPAIGN_P_BINS = 4

# `cliquekit matrix --kind` names and the public builder each one calls
MATRIX_BUILDERS = {
    "super": "subclique_superclique_matrix",
    "vdeck": "vertex_deck_matrix",
    "edeck": "edge_deck_matrix",
    "tdeck": "triangle_deck_matrix",
}

_MASK64 = (1 << 64) - 1

# About the speed probe's time on an idle 2-core x86-64 sandbox; item times
# are reported scaled to this speed (see SpeedProbe and run.py).
PROBE_STEPS = 1200
PROBE_REF_S = 0.0005


def splitmix64(seed: int):
    """Endless stream of splitmix64 outputs for a 64-bit seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def permutation(n: int, seed: int) -> list[int]:
    """Seeded Fisher-Yates shuffle of range(n)."""
    out = list(range(n))
    draws = splitmix64(seed)
    for i in range(n - 1, 0, -1):
        j = next(draws) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    """Short content hash used to compare rendered output with the reference."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class SpeedProbe:
    """A fixed piece of pure-Python work, timed between items to track how
    fast the machine runs right now.

    On a shared host the speed of one core drifts by half or more over tens
    of seconds.  The probe mixes integer work with random reads from an 8 MB
    array, so both interpreter and memory contention slow it.  It allocates no
    container objects, so the heap a program under test leaves behind does not
    change its cost.
    """

    def __init__(self) -> None:
        self._buf = array("q", range(1 << 20))

    def __call__(self) -> float:
        buf, mask = self._buf, len(self._buf) - 1
        x, acc = 0x2545F4914F6CDD1D, 0
        start = perf_counter()
        for _ in range(PROBE_STEPS):
            x ^= (x << 13) & _MASK64
            x ^= x >> 7
            x ^= (x << 17) & _MASK64
            acc += buf[x & mask]
        return perf_counter() - start
