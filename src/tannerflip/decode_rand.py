"""Randomized decoding: sampled flips shrink heavy corruption until the
deterministic decoder's radius applies.

Each iteration collects one vote per decodable-but-wrong constraint (lowest
mismatching neighbor), then flips a random subset of the voted variables:
a variable with m votes is kept with probability m/(2c). Draws are keyed by
(seed, iteration, vertex) through a counter-based hash, so results are
order-independent and bitwise reproducible; each iteration keys the hash on
(seed, iteration) once and extends a copy by each vertex.

The word is set up once: one DecodeState runs the iterations and is handed
to `main_decode`, so the report's counters cover both phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable

from _blake2 import blake2b  # hashlib's own type; importing hashlib loads OpenSSL

from .gf2 import BitVector
from .decode_det import (
    DecodeFailure,
    DecodeReport,
    DecodeState,
    DecoderParams,
    main_decode,
)
from .tanner import TannerCode


class RandomizedAbort(DecodeFailure):
    """The iteration budget ran out before the hand-off threshold fired."""

    outcome = "abort"


@dataclass(frozen=True)
class RandDecodeConfig:
    max_iters: int
    seed: int

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @classmethod
    def for_params(
        cls, params: DecoderParams, seed: int, max_iters: int | None = None
    ) -> RandDecodeConfig:
        """The iteration budget defaults to ceil(log(gamma/alpha) / log(shrink)),
        shrink = 1 - 3*eps*(delta*(t+1)-1)/(4t) with eps = eps0*delta^2/4: enough
        iterations to shrink a start of |F| = alpha*n errors to gamma*n."""
        if max_iters is None:
            eps = params.eps0 * params.delta**2 / 4
            shrink = 1 - 3 * eps * (params.delta * (params.t + 1) - 1) / (4 * params.t)
            if not 0 < shrink < 1:
                raise ValueError("eps too large for the iteration-count formula")
            max_iters = max(
                1, math.ceil(math.log(params.gamma / params.alpha) / math.log(shrink))
            )
        return cls(max_iters=max_iters, seed=seed)


def _keyed(key: int, *parts: int):
    """64-bit BLAKE2b, keyed by the low 64 bits of `key`, fed the parts, each
    as 8 signed little-endian bytes; the one hash behind every seeded draw
    and derived seed. Returned undigested, so it can be copied and extended."""
    data = b"".join(p.to_bytes(8, "little", signed=True) for p in parts)
    return blake2b(data, digest_size=8, key=(key & (2**64 - 1)).to_bytes(8, "little"))


def iteration_draw(seed: int, iteration: int) -> Callable[[int], float]:
    """The uniform [0,1) draw of each vertex in one iteration, keyed by
    (seed, iteration, vertex): the hash is keyed and fed the iteration once,
    and each draw extends a copy of it by the vertex."""
    prefix = _keyed(seed, iteration)

    def draw(vertex: int) -> float:
        h = prefix.copy()
        h.update(vertex.to_bytes(8, "little", signed=True))
        return int.from_bytes(h.digest(), "little") / 2**64

    return draw


def sample_flip_set(
    buckets: list[AbstractSet[int]], c: int, draw: Callable[[int], float]
) -> set[int]:
    """Pick each m-vote variable independently with probability m/(2c)."""
    picked: set[int] = set()
    for m in range(1, c + 1):
        threshold = m / (2 * c)
        for v in buckets[m]:
            if draw(v) < threshold:
                picked.add(v)
    return picked


@dataclass
class RandDecodeReport:
    """`main` reports the deterministic phase and is made afresh by each
    decode, but `main.ops` counts the whole decode from set-up on; after an
    abort it holds the randomized phase's. `handed_off` is whether the
    deterministic phase ran."""

    unsat_trajectory: list[int] = field(default_factory=list)
    main: DecodeReport = field(default_factory=DecodeReport)

    @property
    def iterations(self) -> int:
        return max(0, len(self.unsat_trajectory) - 1)

    @property
    def handed_off(self) -> bool:
        return bool(self.unsat_trajectory and self.main.unsat_per_round)


def randomized_decode(
    code: TannerCode,
    params: DecoderParams,
    config: RandDecodeConfig,
    x: BitVector,
    report: RandDecodeReport | None = None,
) -> BitVector:
    """Iterate sampled flipping until few constraints fail, then hand the
    state off to the deterministic decoder. Raises RandomizedAbort when the
    budget runs out; deterministic-decode failures propagate.
    """
    state = DecodeState(code, params, x)
    c = code.graph.c
    handoff = (params.delta - 1 / params.d0) * c * params.gamma * params.n
    report = report or RandDecodeReport()
    report.main = DecodeReport(ops=state.ops)
    unsat = state.unsat
    report.unsat_trajectory = [len(unsat)]
    for iteration in range(1, config.max_iters + 1):
        picked = sample_flip_set(state.buckets, c, iteration_draw(config.seed, iteration))
        state.apply_flips(picked)
        report.unsat_trajectory.append(len(unsat))
        if len(unsat) <= handoff:
            return main_decode(code, params, state, report=report.main)
    raise RandomizedAbort(f"no hand-off within {config.max_iters} iterations")


__all__ = [
    "RandomizedAbort",
    "RandDecodeConfig",
    "RandDecodeReport",
    "iteration_draw",
    "sample_flip_set",
    "randomized_decode",
]
