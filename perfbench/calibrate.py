"""Machine-speed reference for the timed sections.

The benchmark runs on shared machines. Co-tenants there slow every
instruction of a run by 20-40 % for tens of seconds at a time, and CPU
time slows with wall time, so it is not descheduling. That moves even
best-of-N wall times by 20-30 % from one run to the next. A fixed kernel
does the same kinds of work as a chunk (see Reference). Timed beside
the rollouts, it measures the machine's speed at that moment. The
benchmark scales chunk latencies by REFERENCE_SECONDS / (the kernel's
fastest time in the same rounds).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# The kernel's fastest time on the machine where the baseline in README.md
# was measured (2-core x86_64, Python 3.11.7, numpy 2.4.6 with
# scipy-openblas 0.3.31, one BLAS thread). It sets the scale of the
# normalised times, in that machine's seconds.
REFERENCE_SECONDS = 0.4e-3


class Reference:
    """A frozen chunk-sized kernel: a hashed seed and a seeded normal draw,
    an einsum projection, four small softmax attentions and a keyed sort.
    It shares no code with membank, so program changes do not move it."""

    def __init__(self):
        rng = np.random.default_rng(20240601)
        self.w = rng.standard_normal((2, 2, 32, 16)) / np.sqrt(32)
        self.keys = rng.standard_normal((2, 2, 144, 16))
        self.values = rng.standard_normal((2, 2, 144, 16))
        self.scores = [float(x) for x in rng.standard_normal(51)]

    def run(self) -> float:
        """One pass of the kernel; returns its wall time in seconds."""
        clock = time.perf_counter
        t0 = clock()
        seed = int.from_bytes(hashlib.sha256(b"reference\x1fchunk").digest()[:8], "little")
        x = np.random.default_rng(seed).standard_normal((3, 16, 32))
        q = np.einsum("tpm,lhmd->tlhpd", x, self.w)
        for l in range(2):
            for h in range(2):
                logits = q[:, l, h].reshape(48, 16) @ self.keys[l, h].T * 0.25
                logits -= logits.max(axis=1, keepdims=True)
                w = np.exp(logits)
                w /= w.sum(axis=1, keepdims=True)
                w @ self.values[l, h]
        sorted(range(len(self.scores)), key=lambda i: (-self.scores[i], -i))
        return clock() - t0
