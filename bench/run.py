"""The tannerflip benchmark: seeded closed-loop decodes and sweeps.

Run from the repository root, for example

    python3 bench/run.py --workload det-light --seed 1 --seconds 20 --trace 0

It imports the library from ./src and drives it through public calls only.
One caller runs a closed loop: the next decode (or sweep) starts when the
previous one returns. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run also makes a traced pass (see
spans.py) and reports the per-layer ones instead, and writes its spans to
.bench_out/. Lines before it give each metric in words and an info object
with the Python version, CPU count, git commit, seed and sample counts.

End-to-end times are scaled to a reference CPU speed measured next to each
sample (see record_times); the info line keeps the unscaled values.

Every decoded word is re-checked with TannerCode.is_codeword and compared
with the transmitted word. Sweep rows from worker processes must equal the
rows of a sequential run of the same trials, and the traced pass must
reproduce the untraced words and counters. Any mismatch prints
"correct": false and exits 1. A DecodeFailure or RandomizedAbort is an
honest failure of the decoder: it counts in `failed` and does not end the run.

NOTES.md beside this file explains the workloads and the known gaps in what
the counters see.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pickle
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))
try:
    import tannerflip as tf
    from tannerflip import sweep as sweep_module
    from tannerflip.gf2 import BitMatrix, BitVector
except ImportError as exc:
    raise SystemExit(f"bench: cannot import tannerflip from {SRC}: {exc}")

# Taken before any tracer is installed: the outside membership check.
IS_CODEWORD = tf.TannerCode.is_codeword

# (12,8) random graph, [8,4,4] extended Hamming inner code, alpha=0.02,
# delta=0.8, d0=4: the setting of acceptance criteria 6-8.
C, D, ALPHA, DELTA, D0 = 12, 8, 0.02, 0.8, 4
EXT_HAMMING = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (0, 1, 0, 1, 0, 1, 0, 1),
    (0, 0, 1, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 1),
)
# The graph is part of the code under test, not an input: every run uses the
# seed of the acceptance suite's n=2000 fixture. A graph drawn per run made the
# share of two-round decodes, and with it the latency tail, vary by seed.
GRAPH_SEED = 1
WORKERS = 2  # TANNER_THREADS for the timed sweeps
REF_SECONDS = 0.005  # the time unit: reference_seconds() takes this long
REF_WINDOW = 2  # a decode is scaled by the reference samples of its 2 neighbours each side


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    weights: tuple[int, ...]
    setups: int  # set-ups per run; setup_s is their median
    min_decodes: int  # floor on latency samples, so >= 10 lie beyond p90
    traced: int  # decodes (det) or trials per weight (sweep) in the checked passes
    sweep_trials: int = 0  # trials per weight in each timed run_sweep; 0: main_decode loop

    def __post_init__(self) -> None:
        if self.traced > (self.sweep_trials or self.min_decodes):
            raise ValueError("the checked passes must repeat inputs of the timed loop")


# r = floor(gamma * n) is 3 at n=2000 and 55 at n=32000.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("det-light", 2000, (1, 2, 3), setups=5, min_decodes=100, traced=30),
        Workload("det-scale", 32000, (55,), setups=3, min_decodes=100, traced=12),
        Workload(
            "sweep-rand", 2000, (6, 9), setups=2, min_decodes=100, traced=6,
            sweep_trials=32,
        ),
    )
}

END_TO_END_UNITS = {
    "decodes_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "graphs.gen_ms": "ms",
    "decode_det.params_ms": "ms",
    "decode_det.state_setup_ms": "ms",
    "decode_det.search_ms": "ms",
    "decode_det.search_calls": "count",
    "decode_det.main_self_ms": "ms",
    "decode_det.checks": "count",
    "decode_det.inner_decodes": "count",
    "decode_det.flips": "count",
    "decode_det.search_flip_yield": "ratio",
    "tanner.is_codeword_ms": "ms",
    "tanner.generator_ms": "ms",
    "decode_rand.iterations": "count",
    "decode_rand.sampled_flips": "count",
    "decode_rand.draws": "count",
    "decode_rand.phase_ms": "ms",
    "decode_rand.handoff_ms": "ms",
    "decode_rand.phase_checks": "count",
    "sweep.job_bytes": "B",
    "sweep.dispatch_ms_per_row": "ms",
    "sweep.row_wall_ms.p50": "ms",
    "sweep.worker_rss_mb": "MB",
    "trace.untraced_decodes_per_s": "1/s",
    "trace.traced_decodes_per_s": "1/s",
}


@dataclass
class Decode:
    seconds: float
    received: BitVector
    word: BitVector | None  # None: the decoder raised DecodeFailure
    report: tf.DecodeReport
    ref: float  # reference_seconds() right after the decode


@dataclass
class Run:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=lambda: {"unscaled": {}})
    tracer: spans.Tracer = field(default_factory=spans.Tracer)

    def mismatch(self, message: str) -> None:
        self.correct = False
        self.errors.append(message)


def reference_seconds() -> float:
    """Time a fixed pure-Python computation shaped like the decoder's inner
    loop: list counters, set updates and integer bit operations."""
    t0 = time.perf_counter()
    votes = [0] * 1024
    bucket = set()
    acc = 0
    for i in range(10000):
        v = (i * 7919) & 1023
        votes[v] += 1
        if votes[v] & 1:
            bucket.add(v)
        else:
            bucket.discard(v)
        acc ^= (acc << 1 | v) & 0xFFFFFFFF
    return time.perf_counter() - t0


def ext_hamming() -> tf.InnerCode:
    return tf.InnerCode.from_parity_check(BitMatrix.from_rows([list(r) for r in EXT_HAMMING]))


def set_up(spec: Workload, inner, tracer: spans.Tracer):
    """Graph, code, params and the first prune_bounds; on a sweep workload
    also the first code.dim and code.generator (random codewords need them)."""
    with tracer.span("setup"):
        graph = tf.gen_random_biregular(C, D, spec.n, seed=GRAPH_SEED)
        code = tf.TannerCode(graph, inner)
        params = tf.derive_params(C, D, ALPHA, DELTA, D0, spec.n)
        with tracer.span("prune_bounds"):
            params.prune_bounds
        if spec.sweep_trials:
            with tracer.span("generator"):
                code.dim
                code.generator
    return code, params


def decode_many(code, params, make_input, seconds: float, at_least: int) -> list[Decode]:
    """main_decode in a closed loop until `seconds` have passed and at least
    `at_least` decodes ran."""
    out: list[Decode] = []
    start = time.perf_counter()
    while len(out) < at_least or time.perf_counter() - start < seconds:
        x = make_input(len(out))
        report = tf.DecodeReport()
        t0 = time.perf_counter()
        try:
            word = tf.main_decode(code, params, x, report=report)
        except tf.DecodeFailure:
            word = None
        elapsed = time.perf_counter() - t0
        out.append(Decode(elapsed, x, word, report, reference_seconds()))
    return out


def timed_sweep(code, params, config, workers: int):
    os.environ["TANNER_THREADS"] = str(workers)
    t0 = time.perf_counter()
    rows = tf.run_sweep(code, params, config).rows
    return time.perf_counter() - t0, rows


def sequential_sweep(code, params, config):
    """run_sweep in this process, keeping each (received, decoded) pair."""
    words = []
    decode = sweep_module.randomized_decode

    def keep(code, params, cfg, x, report=None):
        word = None
        try:
            word = decode(code, params, cfg, x, report=report)
        finally:
            words.append((x, word))
        return word

    sweep_module.randomized_decode = keep
    try:
        seconds, rows = timed_sweep(code, params, config, workers=1)
    finally:
        sweep_module.randomized_decode = decode
    return seconds, rows, words


def check_decodes(run: Run, code, decodes: list[Decode]) -> None:
    truth = BitVector.zeros(code.n)
    member: dict[int, bool] = {}
    for d in decodes:
        run.attempted += 1
        if d.word is None:
            run.failed += 1
            continue
        if d.word.bits not in member:
            member[d.word.bits] = IS_CODEWORD(code, d.word)
        if not member[d.word.bits]:
            run.failed += 1
            run.mismatch("main_decode returned a word that fails is_codeword")
        elif d.word != truth:
            run.failed += 1
            run.mismatch(f"main_decode returned a wrong codeword at weight {d.received.weight()}")


def check_rows(run: Run, rows) -> None:
    for row in rows:
        run.attempted += 1
        if row.outcome == "ok" and row.success and row.dist_to_truth == 0:
            continue
        run.failed += 1
        if row.outcome == "wrong_codeword" or row.success:
            run.mismatch(f"sweep row {row.weight}/{row.trial} decoded to a wrong word")


def same_rows(a, b) -> bool:
    return [dataclasses.replace(r, wall_ms=0.0) for r in a] == [
        dataclasses.replace(r, wall_ms=0.0) for r in b
    ]


def to_reference(refs: list[float]) -> float:
    """Factor that scales a time measured next to these reference samples to
    a core that runs reference_seconds() in REF_SECONDS. The host's speed
    drifts by tens of percent within a minute, and the reference loop drifts
    with it."""
    return REF_SECONDS / statistics.median(refs)


def record_times(run: Run, latencies, calls) -> None:
    """Set decodes_per_s and latency_ms.* from (weight, seconds, factor) per
    decode and (seconds, factor) per timed call, each time multiplied by its
    factor; the info line keeps the unscaled values.

    p50 is the mean over weights of each weight's median: each weight's
    latencies form their own mode, and the median of the mixture would sit in
    the gap between two modes. p90 is over all samples."""
    for out, scaled in ((run.end_to_end, True), (run.info["unscaled"], False)):
        by_weight: dict[int, list[float]] = {}
        for weight, seconds, factor in latencies:
            by_weight.setdefault(weight, []).append(seconds * 1e3 * (factor if scaled else 1.0))
        pooled = [v for values in by_weight.values() for v in values]
        p90 = statistics.quantiles(pooled, n=10)[8]
        out["decodes_per_s"] = len(pooled) / sum(
            seconds * (factor if scaled else 1.0) for seconds, factor in calls
        )
        out["latency_ms.p50"] = statistics.fmean(statistics.median(v) for v in by_weight.values())
        out["latency_ms.p90"] = p90
    run.info["samples"] = {
        "per_weight": {w: len(v) for w, v in by_weight.items()},
        "latency": len(pooled),
        "beyond_p90": sum(v > p90 for v in pooled),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    tracer = run.tracer
    input_seed = random.Random(f"{spec.name}/{seed}").getrandbits(32)
    inner = ext_hamming()
    setup_times = []
    for _ in range(spec.setups):
        code = params = None  # let the previous set-up's objects go first
        t0 = time.perf_counter()
        with tracer.active() if trace else contextlib.nullcontext():
            code, params = set_up(spec, inner, tracer)
        setup_times.append((time.perf_counter() - t0, [reference_seconds() for _ in range(3)]))
    run.end_to_end["setup_s"] = statistics.median(s * to_reference(r) for s, r in setup_times)
    run.info["unscaled"]["setup_s"] = statistics.median(s for s, _ in setup_times)
    run.info.update(graph_seed=GRAPH_SEED, input_seed=input_seed, setups=spec.setups)
    if spec.sweep_trials:
        _sweep_workload(run, spec, code, params, input_seed, seconds, trace)
    else:
        _decode_workload(run, spec, code, params, input_seed, seconds, trace)
    if trace:
        for err in spans.nesting_errors(tracer.spans):
            run.mismatch(err)
        run.layers.update(layer_metrics(tracer.spans, run.layers))
        claim = DESIGN_CLAIMS.get(spec.name)
        if claim is not None:
            run.info["design_claim"] = claim(run.layers)
    return run


def _decode_workload(run, spec, code, params, input_seed, seconds, trace) -> None:
    zero = BitVector.zeros(code.n)

    def make_input(i: int) -> BitVector:
        weight = spec.weights[i % len(spec.weights)]
        return tf.corrupt(zero, weight, seed=input_seed + i)

    decodes = decode_many(code, params, make_input, seconds, spec.min_decodes)
    check_decodes(run, code, decodes)
    refs = [d.ref for d in decodes]
    factors = [
        to_reference(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1]) for i in range(len(refs))
    ]
    record_times(
        run,
        [(d.received.weight(), d.seconds, f) for d, f in zip(decodes, factors)],
        [(d.seconds, f) for d, f in zip(decodes, factors)],
    )
    run.end_to_end["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    if not trace:
        return
    with run.tracer.active():
        traced = decode_many(code, params, make_input, 0.0, spec.traced)
    check_decodes(run, code, traced)
    for a, b in zip(decodes, traced):
        if a.word != b.word or a.report.to_json_line() != b.report.to_json_line():
            run.mismatch("tracing changed a decode's word or counters")
    n = len(traced)
    run.layers.update(
        {
            "decode_det.checks": sum(d.report.ops.checks for d in traced) / n,
            "decode_det.inner_decodes": sum(d.report.ops.inner_decodes for d in traced) / n,
            "decode_det.flips": sum(d.report.ops.flips for d in traced) / n,
            "trace.untraced_decodes_per_s": n / sum(d.seconds for d in decodes[:n]),
            "trace.traced_decodes_per_s": n / sum(d.seconds for d in traced),
        }
    )


def _sweep_workload(run, spec, code, params, input_seed, seconds, trace) -> None:
    def config(k: int, trials: int) -> tf.ExperimentConfig:
        return tf.ExperimentConfig(
            weights=spec.weights, trials=trials, decoder="rand", seed=input_seed + k
        )

    calls = []  # (seconds, rows) per timed run_sweep
    start = time.perf_counter()
    while sum(len(rows) for _, rows in calls) < spec.min_decodes or (
        time.perf_counter() - start < seconds
    ):
        calls.append(timed_sweep(code, params, config(len(calls), spec.sweep_trials), WORKERS))
    rows = [row for _, call_rows in calls for row in call_rows]
    check_rows(run, rows)

    # The first timed call's rows for trials < spec.traced, run sequentially.
    small = config(0, spec.traced)
    first = [r for r in calls[0][1] if r.trial < spec.traced]
    seq_seconds, seq_rows, words = sequential_sweep(code, params, small)
    check_rows(run, seq_rows)
    if not same_rows(first, seq_rows):
        run.mismatch(f"{WORKERS}-worker sweep rows differ from sequential run_trial rows")
    for (x, word), row in zip(words, seq_rows):
        if word is not None and not (
            IS_CODEWORD(code, word) and word.distance(x) == row.weight and row.success
        ):
            run.mismatch(f"sweep row {row.weight}/{row.trial}: decoded word fails the outside check")

    # Unscaled: the rows run in worker processes, whose speed the reference
    # loop in this process does not see.
    record_times(run, [(r.weight, r.wall_ms / 1e3, 1.0) for r in rows], [(s, 1.0) for s, _ in calls])
    run.end_to_end["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    run.layers["sweep.worker_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    run.info["samples"]["sweep_calls"] = len(calls)
    if not trace:
        return
    with run.tracer.active():
        traced_seconds, traced_rows = timed_sweep(code, params, small, workers=1)
    check_rows(run, traced_rows)
    if not same_rows(seq_rows, traced_rows):
        run.mismatch("tracing changed sweep rows")
    n = len(traced_rows)
    dispatch = sum(s * WORKERS - sum(r.wall_ms for r in call_rows) / 1e3 for s, call_rows in calls)
    run.layers.update(
        {
            "decode_det.checks": sum(r.checks for r in traced_rows) / n,
            "decode_det.inner_decodes": sum(r.inner_decodes for r in traced_rows) / n,
            "decode_det.flips": sum(r.flips for r in traced_rows) / n,
            "sweep.job_bytes": len(pickle.dumps((code, params, small, spec.weights[0], 0))),
            "sweep.dispatch_ms_per_row": dispatch * 1e3 / len(rows),
            "sweep.row_wall_ms.p50": run.info["unscaled"]["latency_ms.p50"],
            "trace.untraced_decodes_per_s": len(seq_rows) / seq_seconds,
            "trace.traced_decodes_per_s": n / traced_seconds,
        }
    )


def layer_metrics(recs: list[dict], known: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from spans; decode-layer times are means per decode
    (search_ms is per hard_search call), set-up times medians per set-up."""
    kids = spans.children(recs)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update(known)

    def setup_ms(names) -> float:
        per_setup = [
            sum(spans.duration(k) for k in kids.get(s["id"], ()) if k["name"] in names)
            for s in recs
            if s["name"] == "setup"
        ]
        return statistics.median(per_setup) * 1e3 if per_setup else 0.0

    out["graphs.gen_ms"] = setup_ms({"gen_random_biregular"})
    out["decode_det.params_ms"] = setup_ms({"derive_params", "prune_bounds"})
    out["tanner.generator_ms"] = setup_ms({"generator"})

    in_decode = [r for r in recs if r["decode"] is not None]
    decodes = len({r["decode"] for r in in_decode})
    if not decodes:
        return out

    def named(name: str) -> list[dict]:
        return [r for r in in_decode if r["name"] == name]

    def per_decode_ms(items) -> float:
        return sum(items) * 1e3 / decodes

    searches = named("hard_search")
    committed = [r for r in searches if "flips" in r]
    samples = named("sample_flip_set")
    rand = named("randomized_decode")
    handoff = [
        r
        for r in named("DecodeState.__init__")
        if recs[r["parent"]]["name"] == "main_decode"
        and recs[r["parent"]]["parent"] is not None
        and recs[recs[r["parent"]]["parent"]]["name"] == "randomized_decode"
    ]
    out.update(
        {
            "decode_det.state_setup_ms": per_decode_ms(
                spans.duration(r) for r in named("DecodeState.__init__")
            ),
            "decode_det.search_ms": (
                sum(spans.duration(r) for r in searches) * 1e3 / len(searches)
                if searches
                else 0.0
            ),
            "decode_det.search_calls": len(searches) / decodes,
            "decode_det.main_self_ms": per_decode_ms(
                spans.self_time(r, kids) for r in named("main_decode")
            ),
            "decode_det.search_flip_yield": (
                sum(r["net"] for r in committed) / sum(r["flips"] for r in committed)
                if committed and any(r["flips"] for r in committed)
                else 0.0
            ),
            "tanner.is_codeword_ms": per_decode_ms(
                spans.duration(r) for r in named("TannerCode.is_codeword")
            ),
            "decode_rand.iterations": len(samples) / decodes,
            "decode_rand.sampled_flips": sum(r["picked"] for r in samples) / decodes,
            "decode_rand.draws": sum(r["draws"] for r in samples) / decodes,
            "decode_rand.phase_ms": per_decode_ms(
                spans.duration(r)
                - sum(spans.duration(k) for k in kids.get(r["id"], ()) if k["name"] == "main_decode")
                for r in rand
            ),
            "decode_rand.handoff_ms": per_decode_ms(spans.duration(r) for r in handoff),
            "decode_rand.phase_checks": sum(r.get("phase_checks", 0) for r in rand) / decodes,
        }
    )
    return out


def _search_dominates(m: dict[str, float]) -> dict:
    search = m["decode_det.search_ms"] * m["decode_det.search_calls"]
    others = {k: m[k] for k in ("decode_det.state_setup_ms", "tanner.is_codeword_ms")}
    return {
        "claim": "hard_search is the largest child of main_decode",
        "holds": search > max(others.values()),
        "search_ms_per_decode": search,
        **others,
    }


def _setup_and_membership_dominate(m: dict[str, float]) -> dict:
    search = m["decode_det.search_ms"] * m["decode_det.search_calls"]
    both = m["decode_det.state_setup_ms"] + m["tanner.is_codeword_ms"]
    return {
        "claim": "DecodeState set-up plus is_codeword exceed hard_search",
        "holds": both > search,
        "state_setup_plus_is_codeword_ms": both,
        "search_ms_per_decode": search,
    }


def _generator_dominates_setup(m: dict[str, float]) -> dict:
    parts = {k: m[k] for k in ("graphs.gen_ms", "decode_det.params_ms", "tanner.generator_ms")}
    return {
        "claim": "code.dim plus code.generator is the largest part of set-up",
        "holds": parts["tanner.generator_ms"] == max(parts.values()),
        **parts,
    }


DESIGN_CLAIMS = {
    "det-light": _search_dominates,
    "det-scale": _setup_and_membership_dominate,
    "sweep-rand": _generator_dominates_setup,
}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path(tf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: tannerflip was imported from {tf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    values = run.layers if args.trace else run.end_to_end
    run.info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=git_commit(),
        errors=run.errors[:20],
    )
    if args.trace:
        run.info["end_to_end"] = run.end_to_end
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.dump(path, run.info)
        run.info["spans_file"] = str(path.relative_to(ROOT))
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print("info " + json.dumps(run.info))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
