"""(c,d)-biregular bipartite graphs: generation, expansion checks, bounds.

Left vertices are code bits, right vertices are constraints. All indexing is
0-based; neighbor lists are kept strictly ascending.
"""

from __future__ import annotations

import gc
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

EXHAUSTIVE_SUBSET_BUDGET = 10**8
SWAP_CAP_FACTOR = 100


@contextmanager
def _collector_paused():
    """Pause the cyclic collector for a bulk build, then restore the caller's
    state. A build makes only lists, tuples and sets of ints, which form no
    cycles: a collection during it would scan them and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class BipartiteGraph:
    """Simple (c,d)-biregular bipartite graph with both adjacency directions."""

    def __init__(self, c: int, d: int, left_adj: list[list[int]]) -> None:
        if c < 1 or d < 1:
            raise ValueError(f"degrees must be at least 1, got c={c}, d={d}")
        self.c = c
        self.d = d
        n_left = self.n_left = len(left_adj)
        if n_left * c % d:
            raise ValueError("left degree sum not divisible by right degree")
        n_right = self.n_right = n_left * c // d
        adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, map(sorted, left_adj)))
        self.left_adj = adj
        # checked before the right side is allocated, so that its size is
        # bounded by the adjacency lists actually given: c distinct entries
        # each and c * n_left in all leave no list longer than c
        if sum(map(len, adj)) != c * n_left or not {c}.issuperset(map(len, map(set, adj))):
            v = next(v for v, nb in enumerate(adj) if len(nb) != c or len(set(nb)) != c)
            raise ValueError(f"left vertex {v} does not have {c} distinct neighbors")
        # each list is ascending, so its ends bound every index in it
        ends = (min(map(itemgetter(0), adj)), max(map(itemgetter(-1), adj))) if adj else ()
        for u in ends:
            if not 0 <= u < n_right:
                raise ValueError(f"right index {u} out of range")
        right: list[list[int]] = [[] for _ in range(n_right)]
        slots: list[int] = []
        add_slot = slots.append
        for v, nb in enumerate(adj):
            for u in nb:
                r = right[u]
                add_slot(len(r))
                r.append(v)
        for u, nb in enumerate(right):
            if len(nb) != d:
                raise ValueError(f"right vertex {u} has degree {len(nb)}, expected {d}")
        self.right_adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, right))
        # slots[v][k] is v's position in right_adj[u], u = left_adj[v][k]: a
        # row per left vertex, bytes while d <= 256, cut from one flat copy
        # after the loop so that the rows sit together in memory
        flat = bytes(slots) if d <= 256 else tuple(slots)
        self.slots: tuple[bytes | tuple[int, ...], ...] = tuple(
            flat[start:start + c] for start in range(0, c * n_left, c)
        )

    @cached_property
    def left_masks(self) -> tuple[int, ...]:
        """Right-neighborhood of each left vertex as an int bitset."""
        out = []
        for nb in self.left_adj:
            mask = 0
            for u in nb:
                mask |= 1 << u
            out.append(mask)
        return tuple(out)

    def to_text(self) -> str:
        lines = [f"{self.c} {self.d} {self.n_left} {self.n_right}"]
        for nb in self.left_adj:
            lines.append(" ".join(str(u) for u in nb))
        return "\n".join(lines) + "\n"

    @classmethod
    @_collector_paused()
    def from_text(cls, text: str) -> BipartiteGraph:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty graph file")
        try:
            c, d, n_left, n_right = (int(tok) for tok in lines[0].split())
        except ValueError as exc:
            raise ValueError("header must be 'c d nL nR'") from exc
        if len(lines) != 1 + n_left:
            raise ValueError(f"expected {n_left} adjacency lines, found {len(lines) - 1}")
        adj = [tuple(map(int, ln.split())) for ln in lines[1:]]
        g = cls(c, d, adj)
        # the constructor sorts each list; a file must hold them sorted
        if list(g.left_adj) != adj:
            raise ValueError("neighbor lists must be ascending")
        if g.n_right != n_right:
            raise ValueError("header right-vertex count inconsistent with degrees")
        return g


def _shuffle(x: list, rng: random.Random) -> None:
    """Shuffle x in place with the `getrandbits` calls of CPython 3.10-3.13's
    `Random.shuffle`, so a graph does not depend on how that is written: for
    i from len(x) - 1 down to 1, x[i] swaps with x[j], j a k-bit draw redrawn
    while j > i, k = (i + 1).bit_length(), computed once per power of two."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i with (i + 1).bit_length() == k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


@_collector_paused()
def gen_random_biregular(c: int, d: int, n: int, seed: int) -> BipartiteGraph:
    """Seeded configuration-model sample repaired into a simple biregular graph."""
    if c < 1 or d < 1:
        raise ValueError("degrees must be positive")
    if n * c % d:
        raise ValueError(f"n*c = {n * c} not divisible by d = {d}")
    n_right = n * c // d
    if c > n_right or d > n:
        raise ValueError("degrees too large for a simple biregular graph")
    rng = random.Random(seed)
    total = n * c
    right_stubs = [0] * total  # stub u * d + k is right vertex u's k-th
    labels = list(range(n_right))  # one int object for u's d stubs: fewer misses
    for k in range(d):
        right_stubs[k::d] = labels
    _shuffle(right_stubs, rng)

    # left stub i = v * c + k is edge k of vertex v, so an edge's
    # multiplicity is a count in adj[v]
    adj = [right_stubs[start:start + c] for start in range(0, total, c)]
    bad = []
    for v, nb in enumerate(adj):
        if len(set(nb)) < c:
            bad.extend(v * c + k for k, u in enumerate(nb) if nb.count(u) >= 2)
    attempts = 0
    cap = SWAP_CAP_FACTOR * total
    while bad:
        v, k = divmod(bad[-1], c)
        nb = adj[v]
        ui = nb[k]
        if nb.count(ui) < 2:
            bad.pop()
            continue
        attempts += 1
        if attempts > cap:
            raise ValueError("edge-swap repair exceeded attempt cap; resample with a new seed")
        w, m = divmod(rng.randrange(total), c)
        other = adj[w]
        uj = other[m]
        # the swapped pair must consist of fresh edges
        if uj in nb or ui in other:
            continue
        nb[k], other[m] = uj, ui
    return BipartiteGraph(c, d, adj)


@dataclass
class ExpansionReport:
    alpha: float
    delta: float
    verified: bool
    witness: tuple[int, ...] | None
    subsets_checked: int
    confidence: float | None = None


def _subset_budget(n: int, s_max: int) -> int:
    total = 0
    for k in range(1, s_max + 1):
        total += math.comb(n, k)
        if total > EXHAUSTIVE_SUBSET_BUDGET:
            break
    return total


def verify_expansion(
    g: BipartiteGraph, alpha: float, delta: float
) -> ExpansionReport:
    """Exhaustively check |N(S)| >= delta*c*|S| for all nonempty S, |S| <= alpha*n.

    Subsets are enumerated by size then lexicographically; the first violation
    becomes the witness.
    """
    n = g.n_left
    s_max = math.floor(alpha * n)
    if _subset_budget(n, s_max) > EXHAUSTIVE_SUBSET_BUDGET:
        raise ValueError(
            "subset enumeration exceeds budget; use sample_expansion instead"
        )
    masks = g.left_masks
    checked = 0
    for size in range(1, s_max + 1):
        need = delta * g.c * size
        for subset in combinations(range(n), size):
            checked += 1
            mask = 0
            for v in subset:
                mask |= masks[v]
            if mask.bit_count() < need:
                return ExpansionReport(alpha, delta, False, subset, checked)
    return ExpansionReport(alpha, delta, True, None, checked)


def sample_expansion(
    g: BipartiteGraph, alpha: float, delta: float, samples: int, seed: int
) -> ExpansionReport:
    """Random-subset refutation search; can never certify expansion.

    verified stays False; confidence is the fraction of sampled subsets that
    met the bound.
    """
    n = g.n_left
    s_max = math.floor(alpha * n)
    rng = random.Random(seed)
    masks = g.left_masks
    passed = 0
    witness = None
    for _ in range(samples):
        size = rng.randint(1, max(1, s_max))
        subset = tuple(sorted(rng.sample(range(n), size)))
        mask = 0
        for v in subset:
            mask |= masks[v]
        if mask.bit_count() < delta * g.c * size:
            if witness is None:
                witness = subset
        else:
            passed += 1
    return ExpansionReport(
        alpha, delta, False, witness, samples, confidence=passed / samples if samples else None
    )


@dataclass(frozen=True)
class NeighborCounts:
    """Right vertices bucketed by how many neighbors they have inside S."""

    at_most_t: int
    above_t: int
    histogram: tuple[int, ...]  # histogram[k] = #right vertices with exactly k


def count_bounded_neighbors(g: BipartiteGraph, left_set, t: int) -> NeighborCounts:
    if not 1 <= t <= g.d:
        raise ValueError("t must be in [1, d]")
    s = set(left_set)
    hist = [0] * (g.d + 1)
    for nb in g.right_adj:
        k = sum(1 for v in nb if v in s)
        hist[k] += 1
    at_most = sum(hist[1 : t + 1])
    above = sum(hist[t + 1 :])
    return NeighborCounts(at_most, above, tuple(hist))


def verify_counting_bound(g: BipartiteGraph, left_set, t: int, delta: float) -> bool:
    """Check |N_<=t(S)| >= ((delta*(t+1)-1)/t) * c * |S|."""
    counts = count_bounded_neighbors(g, left_set, t)
    size = len(set(left_set))
    bound = (delta * (t + 1) - 1) / t * g.c * size
    return counts.at_most_t >= bound


def expected_neighbor_lower_bound(c: int, d: int, alpha: float) -> float:
    """Per-n lower bound on |N(S)| for |S| = alpha*n in a random biregular graph.

    May be negative, in which case it carries no information.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return (c / d) * (1 - (1 - alpha) ** d) - 2 * alpha * math.sqrt(
        c * math.log(math.e / alpha)
    )


LOWERBOUND_ALPHAS = (0.2, 0.15, 0.1, 0.05)
LOWERBOUND_RETRIES = 40
LOWERBOUND_MAX_C = 16


def build_lowerbound_graph(
    d: int,
    d0: int,
    n: int,
    seed: int,
) -> tuple[BipartiteGraph, int, float]:
    """Assemble the small-distance counterexample graph.

    The left side splits into a main block of n-d0 bits and a tail of d0 bits.
    Constraints come in three groups: a verified expander over the main block,
    d tail-covering constraints each grabbing one (d-d0)-slice of the main
    block plus the whole tail, and disjoint d-blocks covering the rest. The
    left degree c is searched upward from 3 until divisibility holds and a
    sub-expander with ratio 3/4 verifies at the largest feasible alpha.
    """
    if d0 < 2 or d <= d0:
        raise ValueError("need d > d0 >= 2")
    if n < 10 * d0:
        raise ValueError(f"need n >= 10*d0 = {10 * d0}")
    n1 = n - d0
    for c in range(3, LOWERBOUND_MAX_C + 1):
        rest = n1 - (d - d0) * c
        if rest < 0:
            break
        if rest % d or (n1 * (c - 1)) % d:
            continue
        sub = _search_sub_expander(c - 1, d, n1, seed)
        if sub is None:
            continue
        g1, alpha = sub
        return _assemble_lowerbound(g1, c, d, d0, n), c, alpha
    raise ValueError(
        "no verifiable sub-expander found; try a larger degree budget or another seed"
    )


def _search_sub_expander(
    c1: int, d: int, n1: int, seed: int
) -> tuple[BipartiteGraph, float] | None:
    for alpha in sorted(LOWERBOUND_ALPHAS, reverse=True):
        for attempt in range(LOWERBOUND_RETRIES):
            try:
                g1 = gen_random_biregular(c1, d, n1, seed + attempt)
            except ValueError:
                continue
            if verify_expansion(g1, alpha, 0.75).verified:
                return g1, alpha
    return None


def _assemble_lowerbound(
    g1: BipartiteGraph, c: int, d: int, d0: int, n: int
) -> BipartiteGraph:
    n1 = n - d0
    r1 = g1.n_right
    adj: list[list[int]] = [list(g1.left_adj[v]) for v in range(n1)]
    adj.extend([] for _ in range(d0))
    # tail-covering constraints: slice i of the main block plus the whole tail
    for i in range(c):
        u = r1 + i
        for v in range(i * (d - d0), (i + 1) * (d - d0)):
            adj[v].append(u)
        for v in range(n1, n):
            adj[v].append(u)
    # disjoint d-blocks over the remaining main-block bits
    rest_start = (d - d0) * c
    m = (n1 - rest_start) // d
    for i in range(m):
        u = r1 + c + i
        for v in range(rest_start + i * d, rest_start + (i + 1) * d):
            adj[v].append(u)
    return BipartiteGraph(c, d, adj)


__all__ = [
    "BipartiteGraph",
    "ExpansionReport",
    "NeighborCounts",
    "gen_random_biregular",
    "verify_expansion",
    "sample_expansion",
    "count_bounded_neighbors",
    "verify_counting_bound",
    "expected_neighbor_lower_bound",
    "build_lowerbound_graph",
    "EXHAUSTIVE_SUBSET_BUDGET",
]
