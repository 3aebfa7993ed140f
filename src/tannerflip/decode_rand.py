"""Randomized decoding: sampled flips shrink heavy corruption until the
deterministic decoder's radius applies.

Each iteration collects one vote per decodable-but-wrong constraint (lowest
mismatching neighbor), then flips a random subset of the voted variables:
a variable with m votes is kept with probability m/(2c). Draws are keyed by
(seed, iteration, vertex) through a counter-based hash, so results are
order-independent and bitwise reproducible.

The word is set up once: one DecodeState runs the iterations and is handed
to `main_decode`, so the report's counters cover both phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

try:  # the C module alone: importing hashlib also loads OpenSSL
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .gf2 import BitVector
from .decode_det import DecodeReport, DecodeState, DecoderParams, main_decode
from .tanner import TannerCode


class RandomizedAbort(Exception):
    """The iteration budget ran out before the hand-off threshold fired."""


@dataclass(frozen=True)
class RandDecodeConfig:
    eps: float
    max_iters: int
    seed: int

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @classmethod
    def for_params(
        cls,
        params: DecoderParams,
        seed: int,
        eps: float | None = None,
        max_iters: int | None = None,
    ) -> RandDecodeConfig:
        """Concentration margin defaults to eps0*delta^2/4; the iteration
        budget to ceil(log(gamma/alpha) / log(1 - 3*eps*(delta*(t+1)-1)/(4t)))."""
        if eps is None:
            eps = params.eps0 * params.delta**2 / 4
        if max_iters is None:
            shrink = 1 - 3 * eps * (params.delta * (params.t + 1) - 1) / (4 * params.t)
            if not 0 < shrink < 1:
                raise ValueError("eps too large for the iteration-count formula")
            max_iters = max(
                1, math.ceil(math.log(params.gamma / params.alpha) / math.log(shrink))
            )
        return cls(eps=eps, max_iters=max_iters, seed=seed)


def vertex_draw(seed: int, iteration: int, vertex: int) -> float:
    """Uniform [0,1) draw keyed by (seed, iteration, vertex)."""
    h = blake2b(
        iteration.to_bytes(8, "little") + vertex.to_bytes(8, "little"),
        digest_size=8,
        key=(seed & (2**64 - 1)).to_bytes(8, "little"),
    )
    return int.from_bytes(h.digest(), "little") / 2**64


def sample_flip_set(
    buckets: list[set[int]], c: int, draw: Callable[[int], float]
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
    """`main` reports the deterministic phase, but `main.ops` counts the whole
    decode from set-up on; after an abort it holds the randomized phase's."""

    iterations: int = 0
    unsat_trajectory: list[int] = field(default_factory=list)
    handed_off: bool = False
    main: DecodeReport = field(default_factory=DecodeReport)


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
    report.main.ops = state.ops
    report.unsat_trajectory = [state.unsat_count]
    for iteration in range(1, config.max_iters + 1):
        picked = sample_flip_set(
            state.buckets, c, lambda v: vertex_draw(config.seed, iteration, v)
        )
        state.apply_flips(picked)
        report.iterations = iteration
        report.unsat_trajectory.append(state.unsat_count)
        if state.unsat_count <= handoff:
            report.handed_off = True
            return main_decode(code, params, state, report=report.main)
    raise RandomizedAbort(f"no hand-off within {config.max_iters} iterations")


__all__ = [
    "RandomizedAbort",
    "RandDecodeConfig",
    "RandDecodeReport",
    "vertex_draw",
    "sample_flip_set",
    "randomized_decode",
]
