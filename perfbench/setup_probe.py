"""Set-up probe: a fresh process that gets ready to step its first chunk.

Reads {"src", "config", "script"} as JSON on stdin, imports membank from
`src`, parses the script and config, builds the weights, topic space and
initial state, then prints "ready" and exits. The parent times it from
process start to that line.
"""

import json
import sys


def main() -> int:
    doc = json.load(sys.stdin)
    sys.path.insert(0, doc["src"])
    from membank.engine import Mode, initial_state
    from membank.script import script_from_dict
    from membank.toymodel import ModelConfig, init_weights, make_topic_space

    script = script_from_dict(doc["script"])
    cfg = ModelConfig(**doc["config"], seed=script.seed)
    init_weights(cfg)
    make_topic_space(script.num_topics, cfg, 0.05)  # engine.rollout's default noise_eps
    initial_state(cfg, Mode.NAM_SMA)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
