"""Workload definitions: a model geometry plus a script shape.

The benchmark seed picks the scripts (their seeds, prompt texts and topic
order); the program under test receives only the generated script
documents and the config document. Each workload runs several scripts per
seed because the exact quality metrics (`sma_vs_full_l2`) move by about
10 % from one script seed to the next; their mean over the set is steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORDS = (
    ("a", "the", "one", "some"),
    ("lighthouse", "forest", "harbour", "desert", "market", "glacier", "tower", "river"),
    ("at", "under", "beyond", "near"),
    ("dusk", "noon", "rain", "snow", "night", "dawn", "fog", "storm"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict = field(default_factory=dict)  # ModelConfig fields that differ from the defaults
    segment_chunks: int = 3
    topics: int = 3
    segments: int = 10
    scripts: int = 8
    # Rounds that give every mode at least 100 latency samples (blocks of
    # 3 rounds x chunks per script), so the tail percentile is p90 or above.
    min_rounds: int = 1

    @property
    def chunks_per_script(self) -> int:
        return self.segment_chunks * self.segments


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short_frames",
            segment_chunks=3,
            topics=3,
            segments=10,
            scripts=8,
            min_rounds=12,
        ),
        Workload(
            name="deep_bank",
            config={"bank_capacity": 48, "sma_k": 3},
            segment_chunks=10,
            topics=6,
            segments=15,
            scripts=4,
            min_rounds=3,
        ),
        Workload(
            name="wide_frames",
            config={"tokens_per_frame": 64, "bank_capacity": 12, "sma_k": 3},
            segment_chunks=8,
            topics=3,
            segments=4,
            scripts=6,
            min_rounds=12,
        ),
    )
}


def quick(w: Workload) -> Workload:
    """The same geometry on one tiny script, for smoke tests."""
    return Workload(
        name=w.name,
        config=w.config,
        segment_chunks=min(w.segment_chunks, 3),
        topics=min(w.topics, 2),
        segments=3,
        scripts=1,
    )


def script_docs(w: Workload, seed: int) -> list[dict]:
    """The workload's script documents for one benchmark seed."""
    rng = random.Random(f"{w.name}:{seed}")
    docs = []
    for _ in range(w.scripts):
        offset = rng.randrange(w.topics)
        segments = []
        for i in range(w.segments):
            text = " ".join(rng.choice(words) for words in WORDS)
            segments.append(
                {"prompt_text": text, "topic": (offset + i) % w.topics, "chunks": w.segment_chunks}
            )
        docs.append({"seed": rng.randrange(2**31), "segments": segments})
    return docs
