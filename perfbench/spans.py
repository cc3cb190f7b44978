"""Span tracer that times calls into the program's layers from outside.

It wraps, at run time, the public functions that `membank.engine` and
`membank.retrieval` call (`memory_update`, `text_relevance_scores`,
`project_kv`, `project_queries`, `select_top_k`) and hands the driver
wrapped `encode_prompt`, `synth_chunk` and `step_chunk`. No file of the
program changes. Each span is a tuple

    (trace_id, span_id, parent_id, name, start, end, count)

where trace_id is the chunk id, parent_id the span open when the call
began (None at the top), and count a work count taken at the same
boundary (frames scored, frames selected, ...) or None. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Optional

from membank import engine, retrieval, toymodel

from driver import Calls

# (module, attribute, span name, count(args, result) or None)
PATCHED = (
    (engine, "memory_update", "retrieval.memory_update",
     lambda a, r: (len(a[0]), len(r[1]))),  # frames in the bank before, frames retained
    (retrieval, "text_relevance_scores", "retrieval.text_relevance_scores",
     lambda a, r: len(a[1])),  # frames scored
    (engine, "project_kv", "toymodel.project_kv", None),
    (engine, "project_queries", "toymodel.project_queries", None),
    (engine, "select_top_k", "activation.select_top_k",
     lambda a, r: (len(a[0]), len(r.indices))),  # pool frames, selected frames
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id: Optional[int] = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((self.trace_id, span_id, parent, name, start, end,
                          count(args, result) if count else None))
            return result

        return traced

    def calls(self) -> Calls:
        return Calls(
            self.wrap("toymodel.encode_prompt", toymodel.encode_prompt),
            self.wrap("toymodel.synth_chunk", toymodel.synth_chunk),
            self.wrap("engine.step_chunk", engine.step_chunk),
        )

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's module attributes for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHED]
        try:
            for mod, attr, name, count in PATCHED:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and clear the tracer's list."""
        spans = self.spans.copy()
        self.spans.clear()
        return spans


def by_chunk(spans: list[tuple]) -> dict[int, dict[str, list[tuple]]]:
    """Group one rollout's spans: chunk id -> span name -> spans."""
    out: dict[int, dict[str, list[tuple]]] = {}
    for s in spans:
        out.setdefault(s[0], {}).setdefault(s[3], []).append(s)
    return out


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    own = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None and s[2] in own:
            own[s[2]] -= s[5] - s[4]
    return own


def write_jsonl(path, rollouts: list[tuple[str, list[tuple]]]) -> None:
    """Write spans as one JSON object per line, tagged with their rollout."""
    keys = ("trace_id", "span_id", "parent_id", "name", "start", "end", "count")
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in rollouts:
            for s in spans:
                rec = dict(zip(keys, s))
                rec["rollout"] = label
                fh.write(json.dumps(rec) + "\n")
