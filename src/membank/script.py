"""Narrative scripts: multi-segment prompt schedules with planted topics.

File format is JSON: {"seed": int, "segments": [{"prompt_text": str,
"topic": int, "chunks": int}, ...]}. A field outside this schema is an
error, as in config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ScriptError

__all__ = ["Segment", "NarrativeScript", "is_int", "parse_script", "read_json", "script_from_dict"]


def is_int(value) -> bool:
    """Whether a JSON value is an integer. bool is an int subclass, but a
    JSON true is not a count, a seed or a topic."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Segment:
    prompt_text: str
    topic: int
    chunks: int


@dataclass(frozen=True)
class NarrativeScript:
    seed: int
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ScriptError("script needs at least one segment")

    @property
    def total_chunks(self) -> int:
        return sum(s.chunks for s in self.segments)

    @property
    def num_topics(self) -> int:
        return max(s.topic for s in self.segments) + 1

    def topic_of_chunk(self, chunk_id: int) -> int:
        """Planted topic of a global chunk index."""
        offset = 0
        for seg in self.segments:
            if chunk_id < offset + seg.chunks:
                return seg.topic
            offset += seg.chunks
        raise ScriptError(f"chunk {chunk_id} beyond script length {offset}")


# Each segment field: (name, type name for messages, validity check).
_SEGMENT_FIELDS = (
    ("prompt_text", "str", lambda x: isinstance(x, str)),
    ("topic", "int", is_int),
    ("chunks", "int", is_int),
)


def _reject_unknown(doc: dict, known, where: str) -> None:
    unknown = set(doc) - set(known)
    if unknown:
        raise ScriptError(f"unknown {where} fields: {sorted(unknown)}")


def script_from_dict(doc: dict) -> NarrativeScript:
    if not isinstance(doc, dict):
        raise ScriptError("script root must be a JSON object")
    _reject_unknown(doc, ("seed", "segments"), "script")
    try:
        seed = doc["seed"]
        raw_segments = doc["segments"]
    except KeyError as e:
        raise ScriptError(f"script is missing required field {e}") from e
    if not is_int(seed):
        raise ScriptError(f"seed must be an integer, got {type(seed).__name__}")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ScriptError("segments must be a nonempty list")
    segments = []
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict):
            raise ScriptError(f"segment {i} must be an object")
        _reject_unknown(raw, (key for key, *_ in _SEGMENT_FIELDS), f"segment {i}")
        for key, typ, valid in _SEGMENT_FIELDS:
            if key not in raw:
                raise ScriptError(f"segment {i} is missing field '{key}'")
            if not valid(raw[key]):
                raise ScriptError(f"segment {i} field '{key}' must be {typ}")
        if raw["topic"] < 0:
            raise ScriptError(f"segment {i}: topic must be >= 0")
        if raw["chunks"] < 1:
            raise ScriptError(f"segment {i}: chunks must be >= 1")
        if not raw["prompt_text"].strip():
            raise ScriptError(f"segment {i}: prompt_text is empty")
        segments.append(
            Segment(prompt_text=raw["prompt_text"], topic=raw["topic"], chunks=raw["chunks"])
        )
    return NarrativeScript(seed=seed, segments=tuple(segments))


def read_json(path, error_class: type[Exception]):
    """The JSON document in a UTF-8 file. Text that is not UTF-8, or not
    JSON, raises error_class with a message naming the file and, for bad
    JSON, the line."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise error_class(f"{path}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise error_class(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e


def parse_script(path) -> NarrativeScript:
    doc = read_json(path, ScriptError)
    try:
        return script_from_dict(doc)
    except ScriptError as e:
        raise ScriptError(f"{path}: {e}") from e
