"""The composite code: a bipartite graph whose constraints run an inner code.

A word of length n_left belongs to the code when its restriction to every
constraint's neighborhood (taken in ascending left-vertex order) is an inner
codeword. The inner code is linear, so a constraint with no neighbor in the
word's support sees the zero restriction and passes: `failing_constraints`,
the one membership check, reads only the constraints next to the word's
1-coordinates, each with `read_restriction`, the one reader of a restriction.
The generator basis (one elimination, which also gives `dim`) and the
brute-force oracles are computed lazily; decoding and sweeps never need
them. The elimination takes the stacked parity checks' columns, each built
from its coordinate's edges and reduced as it is made, so the checks are
never held at once; a column that reduces to zero gives its kernel vector
there and then. The constraints' check rows sit in the order of their last
left neighbours, which about halves the elimination's XORs and leaves the
basis as it is. No method reads the checks as rows; `global_h` builds them
in constraint order on each access, the reference the tests compare against.
"""

from __future__ import annotations

import random
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .gf2 import BitMatrix, BitVector, _column_kernel, _min_weight, _ones, gray_span
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
        check, ascending. Only the constraints next to the word's
        1-coordinates are read, at most c * |word| of them (none for the
        zero word): every other one sees the zero restriction, which the
        linear inner code contains."""
        if len(word) != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {len(word)}")
        left_adj = self.graph.left_adj
        near: set[int] = set()
        for v in _ones(word):
            near.update(left_adj[v])
        syndrome_bits, read = self.inner.syndrome_bits, self.read_restriction
        return [u for u in sorted(near) if syndrome_bits(read(word, u))]

    def is_codeword(self, x: BitVector) -> bool:
        """Membership of x, through `failing_constraints`. No decoder calls
        it: `compute_truth_trace` checks its truth word with it, and the
        benchmark (`bench/run.py`) re-checks each decoded word with it, bound
        before `bench/spans.py` wraps the method, so no span times that."""
        return not self.failing_constraints(x.to_bytes01())

    @property
    def global_h(self) -> BitMatrix:
        """Stacked parity checks, coordinate v at bit v (row u*r + i is inner
        row i through constraint u's neighborhood); built on each access.
        The library never reads it: it is the plain reference that the tests
        compare `failing_constraints` (through `mat_vec_mul`) and `generator`
        against."""
        rows = tuple(
            sum(1 << v for j, v in enumerate(coords) if hrow >> j & 1)
            for coords in self.graph.right_adj
            for hrow in self.inner.h.row_bits
        )
        return BitMatrix(len(rows), self.n, rows)

    @cached_property
    def generator(self) -> tuple[BitVector, ...]:
        """The kernel basis of the stacked checks, as `nullspace_basis` gives
        it; column v is one pass over v's `left_adj` row zipped with its
        slot row, each slot's inner column syndrome shifted to its
        constraint's r rows, reduced as it is made. Constraint u's rows sit
        at r·k, k its rank by last (largest) left neighbour, which about
        halves the XORs of the constraint order r·u and cannot change the
        basis: which columns are free, and the earlier pivot columns each
        one sums, do not depend on how the rows are numbered."""
        r, syndromes, graph = self.inner.h.rows, self.inner.column_syndromes, self.graph
        right_adj, shift = graph.right_adj, [0] * graph.n_right
        for k, u in enumerate(sorted(range(graph.n_right), key=lambda u: right_adj[u][-1])):
            shift[u] = r * k

        def columns() -> Iterator[int]:
            for nb, row in zip(graph.left_adj, graph.slots):
                column = 0
                for u, j in zip(nb, row):
                    column |= syndromes[j] << shift[u]
                yield column

        return tuple(_column_kernel(columns(), self.n))

    @property
    def dim(self) -> int:
        return len(self.generator)

    def encode(self, msg: BitVector) -> BitVector:
        if msg.n != self.dim:
            raise ValueError(f"message length must equal dimension {self.dim}")
        generator, bits = self.generator, 0
        for i in msg.indices():
            bits ^= generator[i].bits
        return BitVector(self.n, bits)

    def codewords(self) -> Iterator[BitVector]:
        """All 2^dim codewords in Gray-code order; raises ValueError above
        MAX_BRUTEFORCE_DIM, as `min_distance_bruteforce` does."""
        if self.dim > MAX_BRUTEFORCE_DIM:
            raise ValueError(f"dimension {self.dim} exceeds {MAX_BRUTEFORCE_DIM}")
        return gray_span(self.n, tuple(g.bits for g in self.generator))

    def min_distance_bruteforce(self) -> int:
        if self.dim < 1:
            raise ValueError("dimension 0 code has no nonzero codeword")
        if self.dim > MAX_BRUTEFORCE_DIM:
            raise ValueError(f"dimension {self.dim} exceeds {MAX_BRUTEFORCE_DIM}")
        return _min_weight(self.n, tuple(g.bits for g in self.generator))

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
    """Flip a uniformly seeded size-`weight` subset of coordinates, packed
    once, so the cost is per flipped coordinate plus one XOR."""
    if not 0 <= weight <= x.n:
        raise ValueError("weight out of range")
    rng = random.Random(seed)
    return x ^ BitVector.from_indices(x.n, rng.sample(range(x.n), weight))


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
    return load_code(manifest.parent / parts[2], manifest.parent / parts[3])


def load_code(graph_path, inner_path) -> TannerCode:
    """Load a code from a 'bigraph v1' file and an 'innercode v1' file."""
    graph = BipartiteGraph.from_text(Path(graph_path).read_text())
    inner = InnerCode.from_text(Path(inner_path).read_text())
    return TannerCode(graph, inner)


__all__ = [
    "TannerCode",
    "corrupt",
    "write_bundle",
    "load_bundle",
    "load_code",
    "MAX_BRUTEFORCE_DIM",
    "MAX_ORACLE_DIM",
]
