"""Independent brute-force oracles that `verify` checks the package
against; the tests use them too.

The arithmetic here is scalar-loop pure Python (numpy only gathers rows),
so the oracles share no code path with the implementations they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .frames import frames_from_kv


def relevance_scores_loop(query, bank):
    """Scalar-loop version of the text-to-bank relevance scoring: one
    joint softmax over every bank token per (layer, head), weights
    mean-pooled per frame, scores averaged over layers and heads."""
    layers, heads, d = query.q.shape
    n = len(bank.frames)
    totals = [0.0] * n
    for l in range(layers):
        for h in range(heads):
            logits = []
            owner = []
            for i, f in enumerate(bank.frames):
                km = f.k[l, h]
                for r in range(km.shape[0]):
                    s = 0.0
                    for c in range(d):
                        s += float(query.q[l, h, c]) * float(km[r, c])
                    logits.append(s / math.sqrt(d))
                    owner.append(i)
            m = max(logits)
            exps = [math.exp(x - m) for x in logits]
            z = sum(exps)
            sums = [0.0] * n
            counts = [0] * n
            for w, i in zip(exps, owner):
                sums[i] += w / z
                counts[i] += 1
            for i in range(n):
                totals[i] += sums[i] / counts[i]
    return [t / (layers * heads) for t in totals]


def best_subset(scores, k):
    """Exhaustive size-k subset maximizing the score sum; ties resolved
    toward later indices (recency), then returned ascending.

    Sums are compared in exact rational arithmetic so float absorption
    cannot invent spurious ties."""
    scores = [Fraction(float(s)) for s in scores]
    k = min(k, len(scores))
    return max(
        itertools.combinations(range(len(scores)), k),
        key=lambda idx: (sum(scores[i] for i in idx), idx),
    )


def random_frames(rng, count, layers=2, heads=2, tokens=4, dim=8, start_id=0):
    """count frames of standard-normal K/V with consecutive frame ids,
    drawn k then v frame by frame and built as one stack."""
    kv = rng.standard_normal((count, 2, layers, heads, tokens, dim))
    return frames_from_kv(start_id, kv[:, 0], kv[:, 1])
