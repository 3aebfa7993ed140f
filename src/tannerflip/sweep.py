"""Seeded experiment sweeps: corrupt, decode, score, report.

Every trial corrupts the zero codeword. Both decoders read the received word
only through syndromes, so decoding truth ^ e gives truth ^ decode(e) with the
same report, and a random codeword would measure nothing more (the invariance
is pinned in tests/test_syndrome_only.py). So a row's dist_to_truth is the
weight of the decoded word, and a sweep never computes the generator matrix.

Every trial is a pure function of (root seed, weight, trial index), so sweep
reports are bitwise reproducible. Trials may run in worker processes when
TANNER_THREADS asks for more than one (a positive integer, clamped to the
number of trials and of CPUs). The code, params and config reach each worker
once, through the pool's initializer, so a job is only its (weight, trial)
pair; rows are merged by (weight, trial) regardless of completion order.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields

from .gf2 import BitVector
from .decode_det import DecodeFailure, DecoderParams, main_decode
from .decode_rand import (
    RandDecodeConfig,
    RandDecodeReport,
    _keyed,
    randomized_decode,
)
from .tanner import TannerCode, corrupt


class UsageError(ValueError):
    """A run setting from outside the program, such as TANNER_THREADS, is
    malformed."""


def derive_seed(root: int, *parts: int) -> int:
    """Stable 63-bit seed from a root seed and integer tags."""
    return int.from_bytes(_keyed(root, *parts).digest(), "little") >> 1


# The decoders `decode` dispatches on, by name
DECODERS = ("det", "rand")
DET, RAND = DECODERS


def _check_budget(decoder: str, max_iters: int | None) -> None:
    """Only the randomized decoder takes an iteration budget."""
    if decoder == DET and max_iters is not None:
        raise ValueError("max_iters applies only to decoder 'rand'")


def decode(
    code: TannerCode, params: DecoderParams, decoder: str, x: BitVector,
    report: RandDecodeReport, seed: int = 0, max_iters: int | None = None,
) -> BitVector:
    """Decode x with the named decoder into `report`: "det" empties
    `report.unsat_trajectory` and runs main_decode on `report.main`, "rand"
    runs randomized_decode with `seed` and the iteration budget `max_iters`;
    "det" given a budget raises ValueError.
    A failure propagates as a DecodeFailure and names itself by its
    `outcome`. The decoders are read as module globals at each call, so
    rebinding them here reaches every sweep and CLI decode."""
    _check_budget(decoder, max_iters)
    if decoder == DET:
        report.unsat_trajectory = []  # no randomized phase ran
        return main_decode(code, params, x, report=report.main)
    if decoder == RAND:
        config = RandDecodeConfig.for_params(params, seed=seed, max_iters=max_iters)
        return randomized_decode(code, params, config, x, report=report)
    raise ValueError(f"unknown decoder {decoder!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    weights: tuple[int, ...]
    trials: int
    decoder: str = DET  # one of DECODERS
    seed: int = 0
    rand_max_iters: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be {' or '.join(map(repr, DECODERS))}")
        _check_budget(self.decoder, self.rand_max_iters)


@dataclass(frozen=True, slots=True)
class SweepRow:
    weight: int
    trial: int
    seed: int
    success: bool
    dist_to_truth: int
    rounds: int
    rand_iters: int
    checks: int
    inner_decodes: int
    flips: int
    nodes: int
    wall_ms: float
    outcome: str

    def to_csv(self) -> str:
        return ",".join(
            _WRITE_CELL[f.type](getattr(self, f.name)) for f in _ROW_FIELDS
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in _ROW_FIELDS}


_ROW_FIELDS = fields(SweepRow)
CSV_HEADER = "sweep v1," + ",".join(f.name for f in _ROW_FIELDS)
# CSV cells by SweepRow field type, as the annotation is written (this module
# postpones annotations): bools as 0/1, and wall_ms, the only float, at the
# precision run_trial rounds it to
_WRITE_CELL = {
    "int": str, "bool": lambda v: str(int(v)), "float": "{:.3f}".format, "str": str
}
_READ_CELL = {"int": int, "bool": lambda s: bool(int(s)), "float": float, "str": str}


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)

    def success_rate(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.success for r in self.rows) / len(self.rows)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(r.to_csv() for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rows], separators=(",", ":"))


def run_trial(
    code: TannerCode,
    params: DecoderParams,
    config: ExperimentConfig,
    weight: int,
    trial: int,
) -> SweepRow:
    trial_seed = derive_seed(config.seed, weight, trial)
    truth = BitVector.zeros(code.n)
    received = corrupt(truth, weight, derive_seed(trial_seed, 2))
    report = RandDecodeReport()
    start = time.monotonic()
    result = None
    try:
        result = decode(
            code, params, config.decoder, received, report,
            seed=derive_seed(trial_seed, 3), max_iters=config.rand_max_iters,
        )
        outcome = "ok" if result == truth else "wrong_codeword"
    except DecodeFailure as exc:
        outcome = exc.outcome
    # stored at CSV precision; timing is diagnostic only, counters are the signal
    wall_ms = round((time.monotonic() - start) * 1000.0, 3)
    ops = report.main.ops
    return SweepRow(
        weight=weight,
        trial=trial,
        seed=trial_seed,
        success=result == truth,
        dist_to_truth=result.distance(truth) if result is not None else -1,
        rounds=report.main.rounds_used,
        rand_iters=report.iterations,
        checks=ops.checks,
        inner_decodes=ops.inner_decodes,
        flips=ops.flips,
        nodes=ops.nodes,
        wall_ms=wall_ms,
        outcome=outcome,
    )


# What every trial of a parallel sweep shares, set once per worker process by
# the pool's initializer so that a job is only (weight, trial).
_worker_setup: tuple[TannerCode, DecoderParams, ExperimentConfig] | None = None


def _init_worker(
    code: TannerCode, params: DecoderParams, config: ExperimentConfig
) -> None:
    global _worker_setup
    _worker_setup = (code, params, config)


def _worker(job: tuple[int, int]) -> SweepRow:
    return run_trial(*_worker_setup, *job)


def run_sweep(
    code: TannerCode, params: DecoderParams, config: ExperimentConfig
) -> SweepReport:
    if any(w > code.n for w in config.weights):
        raise ValueError(f"weights must be at most n = {code.n}")
    jobs = [
        (weight, trial) for weight in config.weights for trial in range(config.trials)
    ]
    threads = worker_count(os.environ.get("TANNER_THREADS"), len(jobs))
    if threads > 1:
        # imported here: multiprocessing adds ~2 MB to every process that
        # imports tannerflip, and only a parallel sweep needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_init_worker,
            initargs=(code, params, config),
        ) as pool:
            rows = list(pool.map(_worker, jobs, chunksize=8))
    else:
        rows = [run_trial(code, params, config, *job) for job in jobs]
    rows.sort(key=lambda r: (r.weight, r.trial))
    return SweepReport(rows=rows)


def worker_count(value: str | None, n_jobs: int) -> int:
    """Worker processes for n_jobs trials from TANNER_THREADS's value.

    Unset means 1. Anything but a decimal integer >= 1 raises UsageError.
    The count is clamped to n_jobs and to os.cpu_count(): a fork-started
    pool starts all its workers at the first submit.
    """
    if value is None:
        return 1
    if not (value.isascii() and value.isdigit()) or int(value) < 1:
        raise UsageError(
            f"TANNER_THREADS must be a positive integer, got {value!r}"
        )
    return min(int(value), max(n_jobs, 1), os.cpu_count() or 1)


def parse_csv(text: str) -> SweepReport:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unknown sweep header")
    rows = []
    for ln in lines[1:]:
        cells = zip(_ROW_FIELDS, ln.split(","), strict=True)
        rows.append(SweepRow(*(_READ_CELL[f.type](cell) for f, cell in cells)))
    return SweepReport(rows=rows)


__all__ = [
    "DECODERS",
    "decode",
    "ExperimentConfig",
    "SweepRow",
    "SweepReport",
    "run_trial",
    "run_sweep",
    "parse_csv",
    "derive_seed",
    "worker_count",
    "UsageError",
    "CSV_HEADER",
]
