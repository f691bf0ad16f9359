"""A fixed reference workload that gauges how fast the host runs right now.

On a shared host the same child can take 1.2 s in one minute and 2.0 s in
the next: other tenants slow every process down, in phases that last from
seconds to minutes. The runner times this reference, which never touches
the package, before and after every child, and scales the child's times by
a power of ``REF_S / reference time`` (``run.ELASTICITY``). A phase that
slows the host slows the reference too, so the scaled times follow the
program's own cost, while a change to the program moves them exactly as
much as it moves the raw times: the reference does not depend on any file
of the package.

The work mixes what the package spends its time on, in about equal
shares, because contention slows each kind by a different amount: many
small numpy gathers from a large integer matrix followed by ``log`` and a
row sum (scoring clusters for one document), whole-matrix reductions over
the same matrix (entropy refreshes, merges), and interpreter-bound string
and dict work (tokenizing, counting). Work that stays in the core's own
cache is left out: it barely slows down when the host is busy, so it
only adds noise to the gauge.
"""

from __future__ import annotations

import statistics
import time

# about the seconds one reference pass takes on a 2-vCPU Intel Xeon VM at
# 2.1 GHz; the scaled times read as seconds on a host that runs it in REF_S
REF_S = 0.1

_ROWS, _COLS, _DOCS, _DOC_LEN, _SCANS = 300, 20000, 750, 10, 6
_PASSES = 5  # one reference time: about half a second
_TEXT = ("The quick Brown fox, 42 jumps over the lazy dog; "
         "a Stitch in time saves nine! ") * 8


class Reference:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20090628)
        self._np = np
        self._counts = rng.integers(0, 4, size=(_ROWS, _COLS), dtype=np.int64)
        self._docs = rng.integers(0, _COLS, size=(_DOCS, _DOC_LEN))
        self._lines = [_TEXT[i % 50:] for i in range(500)]

    def _pass(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        best = 0.0
        for doc in self._docs:
            scores = np.log(self._counts[:, doc] + 0.1).sum(axis=1)
            best = max(best, float(scores.max()))
        for _ in range(_SCANS):
            best = max(best, float(self._counts.sum(axis=0).max()))
        freq: dict[str, int] = {}
        for line in self._lines:
            for tok in line.split():
                tok = tok.strip(",.;:!?").lower()
                if tok and not tok.isdigit():
                    freq[tok] = freq.get(tok, 0) + 1
        if best <= 0.0 or not freq:
            raise AssertionError("reference pass computed nothing")
        return time.perf_counter() - t0

    def time(self) -> float:
        """Mean seconds of ``_PASSES`` reference passes."""
        return statistics.fmean(self._pass() for _ in range(_PASSES))
