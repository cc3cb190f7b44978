"""Scalar-loop oracles that only the tests use: attention over explicit
keys and values, attention of one (layer, head) over a pool and a local
window, and the SMA relevance scores.

The arithmetic is pure Python (numpy only gathers rows), so these share no
code path with the implementations they check. The oracles `verify` uses
live in `membank.oracles`.
"""

import math

import numpy as np

from membank.errors import ShapeError


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
