"""membank benchmark: chunk throughput and latency per memory mode, with a
traced per-layer breakdown.

    python3 perfbench/run.py --workload deep_bank --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; it imports membank from
`src/`. The load is a closed loop with one client on one thread: chunk
c+1 is requested when chunk c returns. `--trace 0` measures the
end-to-end metrics untraced (plus paired traced `nam_sma` rollouts for
`trace_overhead_share`); `--trace 1` gives the per-layer metrics from
traced rollouts. Every run checks the program's outputs outside the timed
sections. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when a
check failed and 2 when the program cannot be found. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-threaded closed loop.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
COMPUTE_REPEATS = 3
BLOCK = 3  # rounds per latency block
REFERENCE_PASSES = 2  # reference kernel passes before each timed rollout
# Printed with the end-to-end metrics but not in the result line: failed_share
# is 0 on correct code, and trace_overhead_share is smaller than its own
# run-to-run noise (README.md).
UNGATED = ("failed_share", "trace_overhead_share")


def locate_program() -> str | None:
    """Put the checkout's `src` first on sys.path; an error message if absent."""
    if not (SRC / "membank" / "__init__.py").is_file():
        return f"membank sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import membank

    if Path(membank.__file__).resolve().parent != (SRC / "membank").resolve():
        return f"imported membank from {membank.__file__}, not from {SRC}"
    return None


# ---------------------------------------------------------------- helpers


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it, i.e. the (TAIL_BEYOND + 1)-th largest
    sample. Fewer than 2 * TAIL_BEYOND + 1 samples (quick mode) give the
    median."""
    n = len(values)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return 100.0 * (1.0 - beyond / n), sorted(values)[n - 1 - beyond], n


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy bundles, if found."""
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, scripts_doc, config_doc) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "script_digest": digest(scripts_doc),
        "config_digest": digest(config_doc),
    }


# ---------------------------------------------------------------- set-up


def measure_setup(config_doc: dict, script_doc: dict, probes: int) -> list[float]:
    """Seconds from process start until a fresh process can step its first chunk."""
    payload = json.dumps({"src": str(SRC), "config": config_doc, "script": script_doc}).encode()
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ) as proc:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------- the run


class Tally:
    """Chunks attempted and chunks failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def chunk(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))

    def crash(self, label: str, chunks: int) -> None:
        self.attempted += chunks
        self.failed += chunks
        self.problems.append(f"{label}: raised\n{traceback.format_exc()}")


class Bench:
    def __init__(self, args):
        import calibrate
        import checks
        import driver
        import spans
        import workloads
        from membank import engine, metrics
        from membank.script import script_from_dict
        from membank.toymodel import ModelConfig

        self.calibrate, self.checks, self.driver, self.spans = calibrate, checks, driver, spans
        self.engine, self.metrics = engine, metrics
        w = workloads.WORKLOADS[args.workload]
        self.workload = workloads.quick(w) if args.quick else w
        self.config_doc = dict(self.workload.config)
        self.scripts_doc = workloads.script_docs(self.workload, args.seed)
        self.cfg = ModelConfig(**self.config_doc)
        self.preps = [driver.prepare(script_from_dict(d), self.cfg) for d in self.scripts_doc]
        self.modes = list(engine.Mode)
        self.tally = Tally()
        self.reference: dict[tuple[int, str], list[str]] = {}  # (script, mode) -> chunk digests
        self.rng = random.Random(f"checks:{args.workload}:{args.seed}")
        self.reference_times: dict[int, list[float]] = {}  # round -> reference kernel seconds

    # -- checked rollouts (untimed)

    def check_pass(self, s: int, mode):
        """Untimed rollout through the driver with every per-chunk check on."""
        prep, checks, cfg = self.preps[s], self.checks, self.preps[s].cfg
        n = prep.script.total_chunks
        sampled = {0, n - 1, self.rng.randrange(n)}
        sink_ids = list(range(cfg.frames_per_chunk))
        label = f"check script {s} {mode.value}"
        index = iter(range(n))

        def hook(pre_state, pre_sink, prompt, chunk, state, res):
            c = next(index)
            problems = checks.check_counts(cfg, mode, c, res) + checks.check_state(cfg, state, sink_ids)
            if c in sampled:
                problems += checks.check_attention(cfg, prep.weights, pre_state, pre_sink, chunk, res)
            self.tally.chunk(f"{label} chunk {c}", problems)

        try:
            d = self.driver.drive(prep, mode, hook=hook)
        except Exception:
            self.tally.crash(label, n)
            return None
        run = self.engine.RolloutRun(mode, prep.cfg, prep.script, d.results, d.elapsed)
        self.reference[(s, mode.value)] = [self.metrics.chunk_digest(r) for r in d.results]
        return run

    def engine_cross_check(self, s: int, mode, driver_run) -> None:
        """engine.rollout on the same inputs must give the driver's outputs."""
        prep = self.preps[s]
        label = f"engine.rollout script {s} {mode.value}"
        try:
            ran = self.engine.rollout(prep.script, self.cfg, mode)
        except Exception:
            self.tally.crash(label, prep.script.total_chunks)
            return
        mine = self.reference.get((s, mode.value), [])
        for c, res in enumerate(ran.results):
            got = self.metrics.chunk_digest(res)
            ok = c < len(mine) and mine[c] == got
            self.tally.chunk(f"{label} chunk {c}", [] if ok else ["differs from the benchmark driver"])
        if driver_run is not None and self.metrics.determinism_hash(ran) != self.metrics.determinism_hash(driver_run):
            self.tally.problems.append(f"{label}: determinism_hash differs from the driver's")

    def after_timed(self, s: int, mode, d, label: str) -> None:
        """Checks on a timed rollout, made after its clock stopped."""
        cfg = self.preps[s].cfg
        ref = self.reference.get((s, mode.value), [])
        last = len(d.results) - 1
        for c, res in enumerate(d.results):
            problems = self.checks.check_counts(cfg, mode, c, res)
            if c >= len(ref) or self.metrics.chunk_digest(res) != ref[c]:
                problems.append("chunk digest differs from the checked rollout")
            if c == last:
                problems += self.checks.check_state(cfg, d.final_state, list(range(cfg.frames_per_chunk)))
            self.tally.chunk(f"{label} chunk {c}", problems)

    def verify(self):
        """Check passes for every (script, mode), the engine cross-check on
        the first script; returns the exact metrics and compute_metrics times."""
        Mode = self.engine.Mode
        precision, l2, compute = [], [], []
        for s in range(len(self.preps)):
            runs = {}
            for mode in self.modes:
                runs[mode] = self.check_pass(s, mode)
                if s == 0:
                    self.engine_cross_check(s, mode, runs[mode])
            sma, full = runs[Mode.NAM_SMA], runs[Mode.NAM_FULL]
            if sma is None or full is None:
                continue
            for _ in range(COMPUTE_REPEATS):
                t0 = time.perf_counter()
                m = self.metrics.compute_metrics(sma, full)
                compute.append(time.perf_counter() - t0)
            if m.retrieval_precision is not None:
                precision.append(m.retrieval_precision)
            l2.append(m.sma_vs_full_l2)
        return precision, l2, compute

    # -- timed rollouts

    def timed(self, plan: list[tuple[object, bool]], seconds: float, min_rounds: int, keep_traces: bool):
        """Round-robin rollouts over `plan` = [(mode, traced)] until time is up.

        Each round takes the next script and rotates the plan's order, so
        every mode sees the same scripts and positions. At least
        `min_rounds` rounds run. Returns
        {(mode, traced): [Drive]}, the traced rollouts' spans when
        `keep_traces` (otherwise they are dropped after each rollout) and
        the number of rounds.
        """
        Tracer = self.spans.Tracer
        reference = self.calibrate.Reference()
        out: dict[tuple[str, bool], list] = {(m.value, t): [] for m, t in plan}
        traced_spans: list[tuple[str, list[tuple]]] = []
        deadline = time.perf_counter() + seconds
        r = 0
        while r < min_rounds or time.perf_counter() < deadline:
            s = r % len(self.preps)
            k = r % len(plan)
            for mode, traced in plan[k:] + plan[:k]:
                label = f"round {r} script {s} {mode.value}{' traced' if traced else ''}"
                gc.collect()
                self.reference_times.setdefault(r, []).extend(reference.run() for _ in range(REFERENCE_PASSES))
                try:
                    if traced:
                        tracer = Tracer()
                        states = []
                        with tracer.installed():
                            d = self.driver.drive(
                                self.preps[s], mode, calls=tracer.calls(), tracer=tracer,
                                hook=lambda *a: states.append(a[4]),
                            )
                    else:
                        d = self.driver.drive(self.preps[s], mode)
                except Exception:
                    self.tally.crash(label, self.preps[s].script.total_chunks)
                    continue
                self.after_timed(s, mode, d, label)
                if traced and keep_traces:
                    d.states, d.spans = states, tracer.take()
                    traced_spans.append((label, d.spans))
                    d.results = [_Slim(res) for res in d.results]
                else:
                    d.results = None  # keep timings only
                d.final_state = None
                d.round = r
                out[(mode.value, traced)].append(d)
            r += 1
        return out, traced_spans, r


class _Slim:
    """The parts of a ChunkResult the layer metrics need."""

    __slots__ = ("wall_time", "attended_key_count")

    def __init__(self, res):
        self.wall_time = res.wall_time
        self.attended_key_count = res.attended_key_count


def blocks(drives):
    """Yield (rounds, fastest latency of each chunk position) per block.

    Rounds are grouped in blocks of BLOCK consecutive rounds; a block
    yields the fastest of its BLOCK measurements at every chunk position.
    The minimum drops the stalls that co-tenants inject into single
    chunks. Every script of a workload has the same geometry and length,
    so positions line up across the scripts of a block.
    """
    by_round = {d.round: d for d in drives}
    for first in range(0, max(by_round) + 2 - BLOCK, BLOCK):
        rounds = range(first, first + BLOCK)
        if all(r in by_round for r in rounds):
            yield rounds, [min(col) for col in zip(*(by_round[r].latencies for r in rounds))]


def samples(bench: Bench, drives, normalise: bool = True) -> list[float]:
    """Chunk latency samples of one mode, in reference seconds: each
    block's fastest latencies scaled by REFERENCE_SECONDS over the
    reference kernel's fastest time in the block, which removes the
    slowdowns that last whole seconds (see calibrate.py)."""
    out = []
    for rounds, fastest in blocks(drives):
        scale = 1.0
        if normalise:
            scale = bench.calibrate.REFERENCE_SECONDS / min(t for r in rounds for t in bench.reference_times[r])
        out.extend(x * scale for x in fastest)
    return out


def cps(bench: Bench, drives, normalise: bool = True) -> float:
    """Rollout throughput: 1 / mean latency sample."""
    return 1.0 / statistics.fmean(samples(bench, drives, normalise))


def cps_wall(drives) -> float:
    """Median over rollouts of chunks / loop wall time (recorded, not a metric)."""
    return median(len(d.latencies) / d.elapsed for d in drives)


# ---------------------------------------------------------------- metrics


def end_to_end(bench: Bench, setup_times, exact, timed) -> tuple[dict, dict]:
    precision, l2, _ = exact
    metrics: dict[str, tuple[float, str]] = {}
    tails = {}
    for mode in bench.modes:
        metrics[f"chunks_per_s.{mode.value}"] = (cps(bench, timed[(mode.value, False)]), "chunks/s")
    for name in ("nam_full", "nam_sma"):
        lat = samples(bench, timed[(name, False)])
        metrics[f"chunk_ms_p50.{name}"] = (ms(median(lat)), "ms")
        p, value, n = tail(lat)
        metrics[f"chunk_ms_tail.{name}"] = (ms(value), "ms")
        tails[name] = {"percentile": p, "samples": n}
    metrics["setup_s"] = (median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["retrieval_precision"] = (statistics.fmean(precision) if precision else float("nan"), "ratio")
    metrics["sma_vs_full_l2"] = (statistics.fmean(l2) if l2 else float("nan"), "ratio")
    metrics["failed_share"] = (bench.tally.failed / max(1, bench.tally.attempted), "ratio")
    metrics["trace_overhead_share"] = (overhead(timed), "ratio")
    return metrics, tails


def overhead(timed) -> float:
    """Traced over untraced nam_sma loop time, minus 1: the median over
    rounds of the pair run in the same round on the same script."""
    untraced = {d.round: d.elapsed for d in timed[("nam_sma", False)]}
    return median(d.elapsed / untraced[d.round] for d in timed[("nam_sma", True)] if d.round in untraced) - 1.0


def dur(spans) -> float:
    return sum(s[5] - s[4] for s in spans)


def per_layer(bench: Bench, exact, timed) -> tuple[dict, dict, float]:
    """Per-layer metrics from the traced rollouts, medians per chunk.

    Also returns each mode's step time split into the program's phases,
    the projections and the untimed remainder, and the smallest
    per-chunk `step_self` seen.
    """
    sp = bench.spans
    cfg = bench.cfg
    metrics: dict[str, tuple[float, str]] = {}
    step_split: dict[str, dict[str, float]] = {}
    consistency = []
    for mode in bench.modes:
        m = mode.value
        rows = {k: [] for k in ("synth", "pkv", "pq", "step", "attention", "self", "mu", "rel",
                                "selection", "stk", "keys", "occupancy", "bytes", "retr_phase", "sel_phase")}
        enc, enc_calls, busy, chunk_time = [], [], 0.0, 0.0
        scored = retained = pool = selected = 0
        scored_per_update, pool_per_call, selected_per_call = [], [], []
        for d in timed[(m, True)]:
            groups = sp.by_chunk(d.spans)
            own = sp.self_times(d.spans)
            enc_calls.append(sum(len(g.get("toymodel.encode_prompt", ())) for g in groups.values()))
            chunk_time += sum(d.latencies)
            for c, res in enumerate(d.results):
                g = groups[c]
                wall = res.wall_time
                e = g.get("toymodel.encode_prompt", ())
                enc.extend(s[5] - s[4] for s in e)
                synth, pkv, pq = dur(g["toymodel.synth_chunk"]), dur(g["toymodel.project_kv"]), dur(g["toymodel.project_queries"])
                busy += synth + pkv + pq + dur(e)
                step_span = g["engine.step_chunk"][0]
                mu, stk = dur(g.get("retrieval.memory_update", ())), dur(g.get("activation.select_top_k", ()))
                # step = retrieval phase + projections + selection phase + attention + self;
                # memory_update runs inside the retrieval phase, select_top_k inside selection.
                self_t = own[step_span[1]] - (wall["retrieval_update"] - mu) - (wall["selection"] - stk) - wall["attention"]
                step = step_span[5] - step_span[4]
                consistency.append(self_t)
                rows["synth"].append(synth)
                rows["pkv"].append(pkv)
                rows["pq"].append(pq)
                rows["step"].append(step)
                rows["attention"].append(wall["attention"])
                rows["retr_phase"].append(wall["retrieval_update"])
                rows["sel_phase"].append(wall["selection"])
                rows["self"].append(self_t)
                rows["keys"].append(res.attended_key_count)
                if "retrieval.memory_update" in g:
                    rows["mu"].append(mu)
                if "retrieval.text_relevance_scores" in g:
                    rows["rel"].append(dur(g["retrieval.text_relevance_scores"]))
                if "activation.select_top_k" in g:
                    rows["stk"].append(stk)
                    rows["selection"].append(wall["selection"])
                for s in g.get("retrieval.memory_update", ()):
                    before, kept = s[6]
                    if before:
                        scored += before
                        retained += kept
                        scored_per_update.append(before)
                for s in g.get("activation.select_top_k", ()):
                    pool += s[6][0]
                    selected += s[6][1]
                    pool_per_call.append(s[6][0])
                    selected_per_call.append(s[6][1])
                state = d.states[c]
                rows["occupancy"].append(len(state.bank))
                frames = state.sink.frames + state.bank.frames + state.local_window
                rows["bytes"].append(sum(f.k.nbytes + f.v.nbytes for f in frames))
        metrics[f"toymodel.synth_ms.{m}"] = (ms(median(rows["synth"])), "ms")
        metrics[f"toymodel.project_kv_ms.{m}"] = (ms(median(rows["pkv"])), "ms")
        metrics[f"toymodel.project_queries_ms.{m}"] = (ms(median(rows["pq"])), "ms")
        metrics[f"toymodel.encode_prompt_ms.{m}"] = (ms(median(enc)), "ms")
        metrics[f"toymodel.encode_prompt_calls.{m}"] = (median(enc_calls), "count")
        metrics[f"toymodel.busy_share.{m}"] = (busy / chunk_time, "ratio")
        if mode.uses_bank:
            metrics[f"retrieval.memory_update_ms.{m}"] = (ms(median(rows["mu"])), "ms")
            metrics[f"retrieval.relevance_ms.{m}"] = (ms(median(rows["rel"])), "ms")
            metrics[f"retrieval.frames_scored_per_update.{m}"] = (median(scored_per_update), "frames")
            metrics[f"retrieval.retained_share.{m}"] = (retained / scored, "ratio")
        if mode is bench.engine.Mode.NAM_SMA:
            metrics[f"activation.selection_ms.{m}"] = (ms(median(rows["selection"])), "ms")
            metrics[f"activation.select_top_k_ms.{m}"] = (ms(median(rows["stk"])), "ms")
            metrics[f"activation.pool_frames.{m}"] = (median(pool_per_call), "frames")
            metrics[f"activation.selected_frames.{m}"] = (median(selected_per_call), "frames")
            metrics[f"activation.selected_share.{m}"] = (selected / pool, "ratio")
        metrics[f"engine.step_ms.{m}"] = (ms(median(rows["step"])), "ms")
        metrics[f"engine.attention_ms.{m}"] = (ms(median(rows["attention"])), "ms")
        metrics[f"engine.step_self_ms.{m}"] = (ms(median(rows["self"])), "ms")
        keys = median(rows["keys"])
        metrics[f"engine.attended_keys.{m}"] = (keys, "keys")
        metrics[f"engine.attention_madds.{m}"] = (2.0 * keys * cfg.head_dim, "madd")
        if mode.uses_bank:
            metrics[f"frames.bank_occupancy.{m}"] = (median(rows["occupancy"]), "frames")
        metrics[f"frames.resident_kv_bytes.{m}"] = (median(rows["bytes"]), "bytes")
        step_split[m] = {
            "retrieval_update": sum(rows["retr_phase"]),
            "project_kv": sum(rows["pkv"]),
            "project_queries": sum(rows["pq"]),
            "selection": sum(rows["sel_phase"]),
            "attention": sum(rows["attention"]),
            "step_self": sum(rows["self"]),
        }
    metrics["toymodel.init_weights_ms"], metrics["toymodel.topic_space_ms"] = setup_layers(bench)
    metrics["metrics.compute_ms"] = (ms(median(exact[2])), "ms")
    return metrics, step_split, min(consistency)


def setup_layers(bench: Bench, calls: int = 15):
    """Median time of init_weights and make_topic_space for this workload's geometry."""
    from membank import toymodel

    prep = bench.preps[0]
    tracer = bench.spans.Tracer()
    init = tracer.wrap("toymodel.init_weights", toymodel.init_weights)
    space = tracer.wrap("toymodel.make_topic_space", toymodel.make_topic_space)
    for _ in range(calls):
        init(prep.cfg)
        space(prep.script.num_topics, prep.cfg, bench.driver.NOISE_EPS)
    got = bench.spans.by_chunk(tracer.take())[None]
    return (
        (ms(median([s[5] - s[4] for s in got["toymodel.init_weights"]])), "ms"),
        (ms(median([s[5] - s[4] for s in got["toymodel.make_topic_space"]])), "ms"),
    )


def purpose_lines(layer: dict, step_split: dict) -> list[str]:
    """What the traced run says about what each workload is for."""
    sma = "nam_sma"
    write_read = layer[f"retrieval.memory_update_ms.{sma}"][0] + layer[f"activation.selection_ms.{sma}"][0]
    attn = layer[f"engine.attention_ms.{sma}"][0]
    lines = [
        f"nam_sma: memory_update_ms + selection_ms = {write_read:.4f}, attention_ms = {attn:.4f}; "
        f"{'the write and select path' if write_read > attn else 'attention'} is larger"
    ]
    for m, split in step_split.items():
        top = max(split, key=split.get)
        lines.append(
            f"{m}: largest share of step_chunk time is {top} ({split[top] / sum(split.values()):.1%}); "
            f"toymodel busy share of chunk time {layer[f'toymodel.busy_share.{m}'][0]:.1%}"
        )
    return lines


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["short_frames", "deep_bank", "wide_frames"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="one tiny script per workload, one set-up probe")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = locate_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    bench = Bench(args)
    Mode = bench.engine.Mode
    env = environment(args, bench.scripts_doc, bench.config_doc)
    setup_times = []
    if not args.trace:
        setup_times = measure_setup(bench.config_doc, bench.scripts_doc[0], 1 if args.quick else SETUP_PROBES)
    exact = bench.verify()
    if args.trace:
        plan = [(m, True) for m in bench.modes] + [(Mode.NAM_SMA, False)]
    else:
        plan = [(m, False) for m in bench.modes] + [(Mode.NAM_SMA, True)]
    min_rounds = BLOCK if args.quick else bench.workload.min_rounds
    timed, traced_spans, rounds = bench.timed(plan, args.seconds, min_rounds, keep_traces=bool(args.trace))
    env["rounds"] = rounds
    env["scripts"] = len(bench.preps)
    env["chunks_per_script"] = bench.workload.chunks_per_script

    complete = all(timed[(m.value, t)] for m, t in plan)
    record = {"environment": env}
    if not complete:
        bench.tally.problems.append("a mode has no completed timed rollout")
        metrics = {}
    elif args.trace:
        metrics, step_split, min_self = per_layer(bench, exact, timed)
        if min_self < -1e-6:
            bench.tally.problems.append(f"tracer: step_chunk time is less than its parts by {-min_self:.3g} s")
        record["purpose"] = purpose_lines(metrics, step_split)
        record["step_split_s"] = step_split
        record["min_step_self_ms"] = ms(min_self)
        record["trace_overhead_share"] = overhead(timed)
    else:
        metrics, record["tail"] = end_to_end(bench, setup_times, exact, timed)
        record["chunks_per_s_wall_median"] = {m.value: cps_wall(timed[(m.value, False)]) for m in bench.modes}
        record["chunks_per_s_not_normalised"] = {
            m.value: cps(bench, timed[(m.value, False)], normalise=False) for m in bench.modes
        }
        record["setup_s_samples"] = setup_times
    if complete:
        record["reference_seconds"] = {r: ts for r, ts in bench.reference_times.items()}
        record["latencies_ms"] = {
            f"{mode}{' traced' if traced else ''}": {d.round: [ms(x) for x in d.latencies] for d in drives}
            for (mode, traced), drives in timed.items()
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        bench.spans.write_jsonl(OUT / f"{stem}.spans.jsonl", traced_spans)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["problems"] = bench.tally.problems
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for p in bench.tally.problems:
        print(f"check failed: {p}", file=sys.stderr)
    width = max((len(k) for k in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    for line in record.get("purpose", ()):
        print(f"# {line}")
    if complete and args.trace:
        print(f"# trace_overhead_share {record['trace_overhead_share']:.4f}; "
              f"minimum engine.step_self_ms {record['min_step_self_ms']:.4f}")
    if complete and not args.trace:
        print("# tail percentiles: " + json.dumps(record["tail"]))
    print("# environment: " + json.dumps(env, sort_keys=True))

    correct = bench.tally.failed == 0 and not bench.tally.problems
    shown = {k: v for k, v in record["metrics"].items() if k not in UNGATED}
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": shown,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
