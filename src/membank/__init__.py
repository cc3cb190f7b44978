"""Capacity-bounded KV memory for streaming chunk-wise attention:
text-conditioned retrieval, first-frame prototypes, a first-chunk sink,
and relevance-gated sparse activation, plus a deterministic toy model
and rollout harness for exercising them."""
