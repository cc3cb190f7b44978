"""Hand-made frames for the tests, built the engine's way."""

import numpy as np

from membank.frames import frames_from_kv


def hand_frame(frame_id, k, v=None):
    """One frame with keys k ([L, H, P, d], any array-like) and values v
    (zeros if None), built by `frames_from_kv` as a stack of one."""
    k = np.asarray(k, dtype=np.float64)
    v = np.zeros_like(k) if v is None else v
    (frame,) = frames_from_kv(frame_id, k[None], v[None])
    return frame
