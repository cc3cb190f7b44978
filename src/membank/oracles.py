"""Independent brute-force oracles, used by the tests and by `verify`.

The arithmetic here is scalar-loop pure Python (numpy only gathers rows),
so the oracles share no code path with the implementations they check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .frames import FrameKV


def sdp_attention_loop(q, k, v, scale):
    """Triple-nested-loop scaled dot-product attention."""
    q = [[float(x) for x in row] for row in np.asarray(q)]
    k = [[float(x) for x in row] for row in np.asarray(k)]
    v = [[float(x) for x in row] for row in np.asarray(v)]
    # zip would silently truncate mismatched rows.
    if not k or len(k) != len(v) or any(len(row) != len(k[0]) for row in q + k):
        raise ShapeError("need keys, one value per key and equal query/key dims")
    out = []
    for qrow in q:
        logits = []
        for krow in k:
            s = 0.0
            for a, b in zip(qrow, krow):
                s += a * b
            logits.append(s * scale)
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = sum(exps)
        row = [0.0] * len(v[0])
        for w, vrow in zip(exps, v):
            for j in range(len(vrow)):
                row[j] += (w / z) * vrow[j]
        out.append(row)
    return out


def full_memory_attention_oracle(q_vis, pool, local, layer, head, scale):
    """Unrestricted attention of one (layer, head) over pool ++ local."""
    frames = list(pool) + list(local)
    if not frames:
        raise ShapeError("oracle needs at least one key")
    k = np.concatenate([f.k[layer, head] for f in frames])
    v = np.concatenate([f.v[layer, head] for f in frames])
    return sdp_attention_loop(q_vis, k, v, scale)


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


def sma_scores_loop(queries, pool, layer):
    """Scalar-loop SMA relevance of each pool frame for one layer.

    queries is the chunk's [T, L, H, P, d] projection. The query
    descriptor is the mean of the layer's queries over frames, heads and
    tokens; a frame's key descriptor is the mean of its layer keys over
    heads and tokens; the score is their inner product."""
    T, _, H, P, d = queries.shape
    qd = [0.0] * d
    for t in range(T):
        for h in range(H):
            for p in range(P):
                for c in range(d):
                    qd[c] += float(queries[t, layer, h, p, c]) / (T * H * P)
    scores = []
    for f in pool:
        km = f.k[layer]
        heads, tokens = km.shape[0], km.shape[1]
        s = 0.0
        for c in range(d):
            kd = 0.0
            for h in range(heads):
                for p in range(tokens):
                    kd += float(km[h, p, c])
            s += qd[c] * kd / (heads * tokens)
        scores.append(s)
    return scores


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
    """count frames of standard-normal K/V with consecutive frame ids."""
    out = []
    for i in range(count):
        out.append(
            FrameKV(
                frame_id=start_id + i,
                k=rng.standard_normal((layers, heads, tokens, dim)),
                v=rng.standard_normal((layers, heads, tokens, dim)),
            )
        )
    return out
