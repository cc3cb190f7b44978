import numpy as np
import pytest

from membank.errors import ConfigError, ShapeError
from membank.toymodel import (
    ModelConfig,
    TopicSpace,
    Weights,
    encode_prompt,
    init_weights,
    make_topic_space,
    project_kv,
    project_queries,
    synth_chunk,
)

CFG = ModelConfig(seed=7)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(sma_k=99)
    assert CFG.model_dim == CFG.heads * CFG.head_dim


def test_topic_space_orthonormal():
    space = make_topic_space(4, CFG, 0.1)
    g = space.centroids @ space.centroids.T
    assert np.allclose(g, np.eye(4), atol=1e-10)


def test_topic_space_limits():
    with pytest.raises(ConfigError):
        make_topic_space(0, CFG, 0.1)
    with pytest.raises(ConfigError):
        make_topic_space(CFG.head_dim + 1, CFG, 0.1)
    for eps in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise_eps"):
            make_topic_space(2, CFG, eps)
    centroids = np.array([[1.0, 0.0], [0.6, 0.8]])
    with pytest.raises(ConfigError, match="near-orthogonal"):
        TopicSpace(centroids, np.tile(centroids, (1, 2)), 0.1)


def weight_arrays(cfg):
    w = init_weights(cfg)
    return w.wq, w.wk, w.wv


class TestInitWeights:
    def test_deterministic(self):
        assert all(map(np.array_equal, weight_arrays(CFG), weight_arrays(CFG)))

    def test_seed_sensitivity(self):
        other = ModelConfig(seed=8)
        assert not any(map(np.array_equal, weight_arrays(CFG), weight_arrays(other)))

    def test_shapes(self):
        w = init_weights(CFG)
        shape = (CFG.layers, CFG.heads, CFG.model_dim, CFG.head_dim)
        assert w.wq.shape == w.wk.shape == w.wv.shape == shape


class TestEncodePrompt:
    def setup_method(self):
        self.space = make_topic_space(3, CFG, 0.05)
        self.w = init_weights(CFG)

    def test_deterministic(self):
        a = encode_prompt("a quiet forest", 0, CFG, self.space, self.w)
        b = encode_prompt("a quiet forest", 0, CFG, self.space, self.w)
        assert np.array_equal(a.q, b.q)

    def test_empty_text_errors(self):
        with pytest.raises(ConfigError):
            encode_prompt("   ", 0, CFG, self.space, self.w)

    def test_unknown_topic_errors(self):
        with pytest.raises(ConfigError):
            encode_prompt("hello", 9, CFG, self.space, self.w)

    def test_same_topic_prompts_closer(self):
        # cosine similarity within a topic should exceed cross-topic,
        # measured over many prompt pairs
        def flat(q):
            v = q.q.ravel()
            return v / np.linalg.norm(v)

        wins = 0
        trials = 100
        for i in range(trials):
            q1 = flat(encode_prompt(f"scene {i} alpha", 0, CFG, self.space, self.w))
            q2 = flat(encode_prompt(f"scene {i} beta", 0, CFG, self.space, self.w))
            q3 = flat(encode_prompt(f"scene {i} gamma", 1, CFG, self.space, self.w))
            wins += int(q1 @ q2 > q1 @ q3)
        assert wins >= 95


class TestSynthChunk:
    def setup_method(self):
        self.space0 = make_topic_space(2, CFG, 0.0)
        self.space = make_topic_space(2, CFG, 0.1)

    def test_unknown_topic_errors(self):
        for topic in (-1, 2):
            with pytest.raises(ConfigError, match="unknown topic"):
                synth_chunk(topic, 0, CFG, self.space)

    def test_zero_noise_gives_centroid(self):
        chunk = synth_chunk(0, 0, CFG, self.space0)
        tiled = np.tile(self.space0.centroids[0], CFG.heads)
        assert np.allclose(chunk.frames, tiled, atol=0)

    def test_deterministic(self):
        a = synth_chunk(1, 4, CFG, self.space)
        b = synth_chunk(1, 4, CFG, self.space)
        assert np.array_equal(a.frames, b.frames)

    def test_chunk_id_changes_noise(self):
        a = synth_chunk(1, 4, CFG, self.space)
        b = synth_chunk(1, 5, CFG, self.space)
        assert not np.array_equal(a.frames, b.frames)

    def test_mean_token_concentrates(self):
        # the chunk-mean token should sit within ~3 sigma of the centroid;
        # measured empirically over many seeded draws
        eps = 0.1
        total_tokens = CFG.frames_per_chunk * CFG.tokens_per_frame
        bound = 3.0 * eps / np.sqrt(total_tokens)
        hits = 0
        draws = 1000
        for s in range(draws):
            cfg = ModelConfig(seed=s)
            space = make_topic_space(2, cfg, eps)
            chunk = synth_chunk(0, 0, cfg, space)
            tiled = np.tile(space.centroids[0], cfg.heads)
            dev = np.linalg.norm(chunk.frames.reshape(total_tokens, -1).mean(axis=0) - tiled)
            hits += int(dev <= bound)
        assert hits >= 950


class TestProjectKV:
    def setup_method(self):
        self.space = make_topic_space(2, CFG, 0.05)
        self.w = init_weights(CFG)

    def test_frames_out_with_consecutive_ids(self):
        chunk = synth_chunk(0, 2, CFG, self.space)
        frames = project_kv(chunk, CFG, self.w)
        assert len(frames) == CFG.frames_per_chunk
        start = 2 * CFG.frames_per_chunk
        assert [f.frame_id for f in frames] == list(range(start, start + CFG.frames_per_chunk))

    def test_zero_tokens_give_zero_kv(self):
        chunk = synth_chunk(0, 0, CFG, self.space)
        zeroed = type(chunk)(chunk_id=0, frames=np.zeros_like(chunk.frames))
        frames = project_kv(zeroed, CFG, self.w)
        assert not frames[0].k.any() and not frames[0].v.any()

    def test_bit_deterministic(self):
        chunk = synth_chunk(1, 3, CFG, self.space)
        a = project_kv(chunk, CFG, self.w)
        b = project_kv(chunk, CFG, self.w)
        assert np.array_equal(a[0].k, b[0].k) and np.array_equal(a[2].v, b[2].v)

    def test_shape_error(self):
        chunk = synth_chunk(0, 0, CFG, self.space)
        bad = type(chunk)(chunk_id=0, frames=chunk.frames[:, :, :-1])
        with pytest.raises(ShapeError):
            project_kv(bad, CFG, self.w)

    def test_matches_per_frame_loop(self):
        chunk = synth_chunk(1, 4, CFG, self.space)
        frames = project_kv(chunk, CFG, self.w)
        queries = project_queries(chunk, CFG, self.w)
        for t, f in enumerate(frames):
            tokens = chunk.frames[t]
            for l in range(CFG.layers):
                for h in range(CFG.heads):
                    assert np.allclose(f.k[l, h], tokens @ self.w.wk[l, h], rtol=0, atol=1e-12)
                    assert np.allclose(f.v[l, h], tokens @ self.w.wv[l, h], rtol=0, atol=1e-12)
                    assert np.allclose(queries[t, l, h], tokens @ self.w.wq[l, h], rtol=0, atol=1e-12)

    def test_frames_own_their_arrays(self):
        # The chunk's K and V are copied once each; every frame holds
        # read-only views of those two copies.
        chunk = synth_chunk(0, 1, CFG, self.space)
        frames = project_kv(chunk, CFG, self.w)
        for name in ("k", "v"):
            arrays = [getattr(f, name) for f in frames]
            base = arrays[0].base
            assert all(a.base is base for a in arrays)
            assert base.shape == (CFG.frames_per_chunk, *arrays[0].shape)
            assert not base.flags.writeable and base.base is None
            for t, a in enumerate(arrays):
                assert not a.flags.writeable and a.flags.c_contiguous
                assert np.array_equal(a, base[t]) and np.shares_memory(a, base[t])
                for caller in (chunk.frames, self.w.wk, self.w.wv):
                    assert not np.shares_memory(a, caller)
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                base[0, 0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("overflows", ["k", "v"])
    def test_overflowing_projection_rejected(self, overflows):
        # Tokens of magnitude 1e307 pass ChunkTokens' check and project
        # to finite K/V. Scaling one weight by 1e3 makes that projection
        # overflow to inf, which project_kv's one check over the chunk's
        # K/V rejects.
        chunk = synth_chunk(0, 0, CFG, self.space)
        big = type(chunk)(chunk_id=0, frames=1e307 * np.sign(chunk.frames))
        assert len(project_kv(big, CFG, self.w)) == CFG.frames_per_chunk
        scale = {"k": 1.0, "v": 1.0, overflows: 1e3}
        scaled = Weights(wq=self.w.wq, wk=scale["k"] * self.w.wk, wv=scale["v"] * self.w.wv)
        with np.errstate(over="ignore"), pytest.raises(ShapeError, match="non-finite"):
            project_kv(big, CFG, scaled)

    def test_non_finite_tokens_rejected(self):
        chunk = synth_chunk(0, 0, CFG, self.space)
        bad = chunk.frames.copy()
        bad[1, 2, 3] = np.nan
        with pytest.raises(ShapeError):
            type(chunk)(chunk_id=0, frames=bad)

    def test_query_projection_shape(self):
        chunk = synth_chunk(0, 0, CFG, self.space)
        q = project_queries(chunk, CFG, self.w)
        assert q.shape == (
            CFG.frames_per_chunk,
            CFG.layers,
            CFG.heads,
            CFG.tokens_per_frame,
            CFG.head_dim,
        )


def test_planted_separability():
    # frozen after a noise sweep: with shared-base Q/K projections the
    # same-topic frame wins the relevance ranking for every noise level
    # tried up to 1.0; asserted here at the spec-level working point 0.1
    from membank.frames import MemoryBank
    from membank.retrieval import text_relevance_scores

    wins = 0
    trials = 100
    for s in range(trials):
        cfg = ModelConfig(seed=s)
        space = make_topic_space(3, cfg, 0.1)
        w = init_weights(cfg)
        bank = MemoryBank(8, tuple(project_kv(synth_chunk(t, t, cfg, space), cfg, w)[0] for t in range(3)))
        q = encode_prompt("a prompt about the planted subject", 0, cfg, space, w)
        wins += int(np.argmax(text_relevance_scores(q, bank)) == 0)
    assert wins >= 95
