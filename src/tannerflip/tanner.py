"""The composite code: a bipartite graph whose constraints run an inner code.

A word of length n_left belongs to the code when its restriction to every
constraint's neighborhood (taken in ascending left-vertex order) is an inner
codeword. `read_restriction` is the one reader of a restriction, for the
decoder and for `failing_constraints`, which checks every constraint.
The generator basis (one elimination, which also gives `dim`) and the
brute-force oracles are computed lazily; decoding and sweeps never need
them. The elimination takes the stacked global parity checks one at a time,
built column-reversed from the graph and the inner code, so they are never
held at once; `global_h` builds the same rows as a matrix for tests and
callers that want it, on each access.
"""

from __future__ import annotations

import random
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .gf2 import BitMatrix, BitVector, _kernel, _reversed, gray_span
from .graphs import BipartiteGraph
from .inner import InnerCode

MAX_BRUTEFORCE_DIM = 24
MAX_ORACLE_DIM = 20


class TannerCode:
    def __init__(self, graph: BipartiteGraph, inner: InnerCode) -> None:
        if inner.d != graph.d:
            raise ValueError(
                f"inner block length {inner.d} != right degree {graph.d}"
            )
        self.graph = graph
        self.inner = inner
        self.n = graph.n_left

    def read_restriction(self, word: bytes | bytearray, u: int) -> int:
        """Constraint u's restriction of a 0/1 byte word, packed: bit j holds
        the word's value at u's j-th neighbor."""
        r = 0
        for v in reversed(self.graph.right_adj[u]):
            r = r + r + word[v]
        return r

    def failing_constraints(self, word: bytes | bytearray) -> list[int]:
        """Constraints whose restriction of a 0/1 byte word fails the inner
        check, ascending."""
        if len(word) != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {len(word)}")
        syndrome_bits, read = self.inner.syndrome_bits, self.read_restriction
        return [u for u in range(self.graph.n_right) if syndrome_bits(read(word, u))]

    def is_codeword(self, x: BitVector) -> bool:
        return not self.failing_constraints(x.to_bytes01())

    def _reversed_checks(self) -> Iterator[int]:
        """The stacked parity checks, built one at a time and column-reversed
        (coordinate v at bit n-1-v), as the elimination takes them: each
        inner row mapped through each constraint's neighborhood in turn."""
        last = self.n - 1
        positions = [
            [j for j in range(self.inner.d) if (hrow >> j) & 1]
            for hrow in self.inner.h.row_bits
        ]
        for coords in self.graph.right_adj:
            for row in positions:
                mask = 0
                for j in row:
                    mask |= 1 << (last - coords[j])
                yield mask

    @property
    def global_h(self) -> BitMatrix:
        """Stacked parity checks, coordinate v at bit v. Built on each access
        and not kept; `generator` eliminates the same rows without it."""
        rows = tuple(_reversed(row, self.n) for row in self._reversed_checks())
        return BitMatrix(len(rows), self.n, rows)

    @cached_property
    def generator(self) -> tuple[BitVector, ...]:
        """The kernel basis of the stacked checks, as `nullspace_basis`
        gives it, each check handed to the elimination as it is built."""
        return tuple(_kernel(self._reversed_checks(), self.n))

    @property
    def dim(self) -> int:
        return len(self.generator)

    def encode(self, msg: BitVector) -> BitVector:
        if msg.n != self.dim:
            raise ValueError(f"message length must equal dimension {self.dim}")
        bits = 0
        for i, gen in enumerate(self.generator):
            if (msg.bits >> i) & 1:
                bits ^= gen.bits
        return BitVector(self.n, bits)

    def codewords(self) -> Iterator[BitVector]:
        """All 2^dim codewords in Gray-code order (guarded by dim)."""
        return gray_span(self.n, tuple(g.bits for g in self.generator))

    def min_distance_bruteforce(self) -> int:
        if self.dim < 1:
            raise ValueError("dimension 0 code has no nonzero codeword")
        if self.dim > MAX_BRUTEFORCE_DIM:
            raise ValueError(f"dimension {self.dim} exceeds {MAX_BRUTEFORCE_DIM}")
        return min(cw.weight() for cw in self.codewords() if cw.bits)

    def nearest_codeword_oracle(self, x: BitVector) -> tuple[BitVector, int]:
        """Exhaustive nearest codeword; ties go to the lexicographically
        smallest codeword (bit 0 most significant)."""
        if x.n != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {x.n}")
        if self.dim > MAX_ORACLE_DIM:
            raise ValueError(f"dimension {self.dim} exceeds {MAX_ORACLE_DIM}")
        best = None
        best_dist = self.n + 1
        best_key = None
        for cw in self.codewords():
            dist = (cw.bits ^ x.bits).bit_count()
            if dist > best_dist:
                continue
            key = cw.to_text()
            if dist < best_dist or key < best_key:
                best, best_dist, best_key = cw, dist, key
        return best, best_dist


def corrupt(x: BitVector, weight: int, seed: int) -> BitVector:
    """Flip a uniformly seeded size-`weight` subset of coordinates."""
    if not 0 <= weight <= x.n:
        raise ValueError("weight out of range")
    rng = random.Random(seed)
    bits = x.bits
    for i in rng.sample(range(x.n), weight):
        bits ^= 1 << i
    return BitVector(x.n, bits)


MANIFEST_TAG = "tanner v1"


def write_bundle(manifest_path, graph_path, inner_path) -> None:
    """Write a 'tanner v1' manifest; the paths are written as given, so they
    must be relative to the manifest (or absolute) and free of whitespace."""
    for path in (graph_path, inner_path):
        if any(ch.isspace() for ch in str(path)):
            raise ValueError(f"manifest paths cannot hold whitespace: {str(path)!r}")
    Path(manifest_path).write_text(f"{MANIFEST_TAG} {graph_path} {inner_path}\n")


def load_bundle(manifest_path) -> TannerCode:
    """Load a code from a 'tanner v1' manifest; paths resolve relative to it."""
    manifest = Path(manifest_path)
    parts = manifest.read_text().strip().split()
    if len(parts) != 4 or " ".join(parts[:2]) != MANIFEST_TAG:
        raise ValueError(f"manifest must read '{MANIFEST_TAG} <graph> <inner>'")
    base = manifest.parent
    graph = BipartiteGraph.from_text((base / parts[2]).read_text())
    inner = InnerCode.from_text((base / parts[3]).read_text())
    return TannerCode(graph, inner)


__all__ = [
    "TannerCode",
    "corrupt",
    "write_bundle",
    "load_bundle",
    "MAX_BRUTEFORCE_DIM",
    "MAX_ORACLE_DIM",
]
