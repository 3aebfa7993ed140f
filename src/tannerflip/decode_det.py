"""Deterministic flip decoding with incremental bookkeeping.

The decoder stack has three layers. A single voting-and-flip round
(`easy_flip`) flips every variable holding exactly m votes (one vote per
constraint that sees a decodable but wrong restriction, aimed at its lowest
mismatching neighbor). The search layer (`hard_search`) scans sequences of
such rounds in lexicographic order, pruning every prefix whose unsatisfied
count stops shrinking fast enough, until one sequence cuts the count by a
fixed factor. The top layer (`main_decode`) repeats the search until no
constraint is unsatisfied, then finishes with one bounded-distance pass of
the inner decoder. The search flips buckets through
`DecodeState.apply_flips`, so no decoder calls `easy_flip`; it stays public
because it is the one-round step that the lexicographic scan oracle
(`deep_flip` in the tests) and the voting tests drive.

The state keeps each constraint's inner syndrome up to date by XOR: flipping
a variable XORs one column syndrome of the inner code into each adjacent
constraint's syndrome, and one batched loop then refreshes those
constraints, each by one coset-leader lookup, with the vote moves inline.
Set-up is the same update applied to the received word's support: only the
constraints next to its 1-coordinates are refreshed, and every other
constraint passes by linearity. It is charged one check and one inner decode
per constraint. No decode makes a whole-word pass: all state updates are
incremental, so flipping a variable refreshes only the adjacent constraints,
and the closing membership check (`DecodeState.word_is_codeword`) reads only
the constraints next to the coordinates the decode changed. The search walk
runs each chain of empty-bucket (no-op) levels as one generator, so a search
call costs its real bucket flips plus O(c) per chain, rather than
one step per level of the s0-deep sequence tree. Operation counters record
every check, inner decode, bit flip and search node of the decoding for the
cost-contract tests; the closing check is not counted, and is bounded by the
flips.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .gf2 import BitVector
from .tanner import TannerCode


class DecodeFailure(Exception):
    """The decoder could not produce a codeword (input outside the radius)."""


class NoAcceptableBranch(DecodeFailure):
    """Every flip sequence was exhausted without an acceptable reduction."""


@dataclass(frozen=True)
class DecoderParams:
    """Derived schedule for one (graph, inner code, expansion) configuration.

    eps0/eps1 admit any value in their open ranges; the defaults sit at half
    the allowed maximum and 1/200 of the slack, respectively. strict_product
    records whether delta*d0 > 3 held (the stronger hypothesis); derivation
    only requires d0 > 3/delta - 1 and warns in the gap. `prune_bounds`
    is the search's pruning schedule as an integer reach table, built on
    first use and cached on the instance (and in its pickle).
    """

    c: int
    d: int
    alpha: float
    delta: float
    d0: int
    n: int
    t: int
    eps0: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    gamma: float
    s0: int
    ell: int
    strict_product: bool

    @cached_property
    def prune_bounds(self) -> tuple[int, ...]:
        """The search's pruning schedule as a reach table over integer counts.

        The bound after step k is b_k, by the recurrence b_0 = c*gamma*n,
        b_(k+1) = b_k * (1.0 - eps3); a `pow` for (1-eps3)^k differs from it
        in the last place, and the pinned walks prune on the recurrence. The
        search only asks, for an integer count u, for the largest k <= s0
        with u <= b_k: entry u, for 0 <= u <= b_0, holds it, and a count past
        the table meets no bound. One pass over the recurrence places the u
        in descending order and keeps no float, so the table holds about
        c*gamma*n + 1 ints (42 at n = 2000, where s0 = 67,607)."""
        shrink = 1.0 - self.eps3
        bound = self.c * self.gamma * self.n
        table = [self.s0] * (math.floor(bound) + 1)
        u = len(table) - 1  # every u above the current u is placed
        for k in range(self.s0):
            bound *= shrink  # b_(k+1)
            while u > bound:
                table[u] = k
                u -= 1
        return tuple(table)


def derive_params(
    c: int,
    d: int,
    alpha: float,
    delta: float,
    d0: int,
    n: int,
    eps0: float | None = None,
    eps1: float | None = None,
) -> DecoderParams:
    """Instantiate the decoding schedule for a (c,d,alpha,delta) expander."""
    for name, size in (("c", c), ("d", d), ("n", n)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if d0 <= 3 / delta - 1:
        raise ValueError(
            f"infeasible: need d0 > 3/delta - 1 = {3 / delta - 1:.4f}, got {d0}"
        )
    t = math.floor(1 / delta)
    if eps0 is None:
        eps0 = 0.5 * min((d0 + 1 - 3 / delta) / 2, (t + 1) - 1 / delta)
    if not (d0 > 3 / delta - 1 + 2 * eps0 and math.floor(1 / delta + eps0) == t):
        raise ValueError("eps0 outside its admissible range")
    if eps1 is None:
        eps1 = eps0 * delta**2 / 200
    if not 0 < eps1 < eps0 * delta**2 / 100:
        raise ValueError("eps1 outside its admissible range")
    eps2 = eps1 / (c + 1) * (delta * (t + 1) - 1) / t
    eps3 = eps2 * (2 * (1 - eps1) * (0.5 + eps0 * delta**2 / 2) - 1)
    if eps3 <= 0:
        raise ValueError("eps3 is not positive; parameter pathology")
    eps4 = (delta * d0 - 1) / (d0 - 1) * (1 - eps3)
    gamma = 2 * alpha / (d0 * (1 + 0.5 * c * delta))
    log_shrink = math.log(1 - eps3)
    s0 = math.ceil(math.log(eps4 * (delta * d0 - 1) / (d0 - 1)) / log_shrink)
    radius = (d0 - 1) // 2
    ell = max(0, math.ceil(math.log(radius / (gamma * n)) / log_shrink))
    strict = delta * d0 > 3
    if not strict:
        warnings.warn(
            f"delta*d0 = {delta * d0:.4f} <= 3: configuration sits in the gap "
            "between the derivation hypothesis and the full guarantee",
            stacklevel=2,
        )
    return DecoderParams(
        c=c,
        d=d,
        alpha=alpha,
        delta=delta,
        d0=d0,
        n=n,
        t=t,
        eps0=eps0,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        gamma=gamma,
        s0=s0,
        ell=ell,
        strict_product=strict,
    )


@dataclass(slots=True)
class OpCounters:
    """Work counters; `nodes` counts the levels hard_search's walk stands on
    to try digits, plus each leaf it decides."""

    checks: int = 0
    inner_decodes: int = 0
    flips: int = 0
    nodes: int = 0

    def total(self) -> int:
        return self.checks + self.inner_decodes + self.flips + self.nodes

    def copy(self) -> OpCounters:
        return OpCounters(self.checks, self.inner_decodes, self.flips, self.nodes)


def _ones(word: bytes) -> list[int]:
    """The positions of the 1-bytes of a 0/1 byte word, found with
    bytes.find, so the cost is per 1-byte."""
    ones = []
    v = word.find(1)
    while v >= 0:
        ones.append(v)
        v = word.find(1, v + 1)
    return ones


class DecodeState:
    """Mutable decoding state over an immutable code.

    Invariant at every operation boundary: `_syn[u]` is the inner syndrome of
    constraint u's restriction of the current word, `unsat` is exactly the
    set of failing constraints for the current word, `targets[u]` is the
    vote sent by constraint u (-1 for none), `votes[v]` counts the votes on
    variable v, and `buckets[m]` holds the variables with exactly m votes.
    A flip is undone by flipping the same variables again, which is how the
    search backs out of a branch.

    Flipping v XORs the syndrome of the unit vector at v's slot in u's
    neighborhood into `_syn[u]`, for each constraint u next to v; then
    `_refresh` brings the dirty constraints' entries up to date in one loop,
    each by one coset-leader lookup on its syndrome. No restriction is read.

    Set-up is the same update applied to supp(x), from the zero word's state,
    which is the initial one: every syndrome 0, so every constraint passes
    with coset leader 0 and sends no vote. Set-up therefore refreshes, in
    ascending order, only the constraints next to the 1-coordinates of x, at
    most c * |x| of them, and never makes a whole-word pass. It charges no
    flips. It is still charged one check and one inner decode per
    constraint: it decides every constraint's entry, those away from the
    support by linearity, and the flat charge keeps a report a function of
    the syndrome alone (decoding truth + e and e give equal reports). Set-up
    also keeps the received word and the constraints failing on it; nothing
    else reads or changes them, and `word_is_codeword` checks the current
    word against them.
    """

    def __init__(self, code: TannerCode, params: DecoderParams, x: BitVector) -> None:
        if x.n != code.n:
            raise ValueError(f"length mismatch: expected {code.n}, got {x.n}")
        graph = code.graph
        shape = (graph.c, graph.d, code.inner.d0, code.n)
        if (params.c, params.d, params.d0, params.n) != shape:
            raise ValueError(f"params were derived for another code than (c, d, d0, n) = {shape}")
        self.code = code
        self.params = params
        self.t = params.t
        self._left_adj = graph.left_adj
        self._right_adj = graph.right_adj
        self._column_syndromes = code.inner.column_syndromes
        self._syndrome_table = code.inner.syndrome_table
        self._read = code.read_restriction
        self._received = x.to_bytes01()
        self.x = bytearray(self._received)
        self._syn = [0] * graph.n_right
        self.unsat: set[int] = set()
        self.targets = [-1] * graph.n_right
        self.votes = [0] * graph.n_left
        self.buckets: list[set[int]] = [set() for _ in range(graph.c + 1)]
        self.ops = OpCounters()
        self._refresh(sorted(self._flip_syndromes(_ones(self._received))))
        self._received_failing = frozenset(self.unsat)
        self.ops.checks = self.ops.inner_decodes = graph.n_right

    @property
    def unsat_count(self) -> int:
        return len(self.unsat)

    def x_vector(self) -> BitVector:
        return BitVector.from_bytes01(self.x)

    def word_is_codeword(self) -> bool:
        """Exact membership of the current word, by linearity from the
        received word.

        Let T be the constraints next to the coordinates where the word
        differs from the received word. A constraint outside T sees the same
        restriction as in the received word, so the word is a codeword iff
        every constraint that failed on the received word is in T and every
        constraint in T passes. This reads at most c * |differences|
        constraints, no more than c * ops.flips when the word changed by
        flips only. It reads the word, the received word and its failing
        constraints as kept at set-up, and none of the incremental
        bookkeeping (`_syn` included), so it stays an independent check of
        the output.
        """
        received = self._received
        diff = (
            int.from_bytes(received, "little") ^ int.from_bytes(self.x, "little")
        ).to_bytes(len(received), "little")
        left_adj = self._left_adj
        touched: set[int] = set()
        for v in _ones(diff):
            touched.update(left_adj[v])
        if not touched.issuperset(self._received_failing):
            return False
        read, word = self._read, self.x
        syndrome_bits = self.code.inner.syndrome_bits
        return not any(syndrome_bits(read(word, u)) for u in touched)

    def _flip_syndromes(self, vs) -> set[int]:
        """XOR the flip of each variable in vs into the syndromes of the
        constraints next to it; returns those constraints."""
        left_adj, right_adj = self._left_adj, self._right_adj
        syn, columns = self._syn, self._column_syndromes
        dirty: set[int] = set()
        for v in vs:
            adj = left_adj[v]
            for u in adj:
                syn[u] ^= columns[right_adj[u].index(v)]
            dirty.update(adj)
        return dirty

    def _refresh(self, us) -> None:
        """Bring the entries of the constraints us in the invariant up to
        date with their syndromes, counting one check and one inner decode
        each: one coset-leader lookup, then the vote moves inline."""
        ops = self.ops
        ops.checks += len(us)
        ops.inner_decodes += len(us)
        syn, table, t = self._syn, self._syndrome_table, self.t
        right_adj, targets = self._right_adj, self.targets
        votes, buckets, unsat = self.votes, self.buckets, self.unsat
        for u in us:
            leader = table.get(syn[u])
            new = -1
            if leader == 0:
                unsat.discard(u)
            else:
                unsat.add(u)
                # None: beyond the inner radius, so failing but voteless
                if leader and leader.bit_count() <= t:
                    new = right_adj[u][(leader & -leader).bit_length() - 1]
            old = targets[u]
            if new != old:
                if old >= 0:
                    m = votes[old]
                    buckets[m].discard(old)
                    m -= 1
                    votes[old] = m
                    if m:
                        buckets[m].add(old)
                if new >= 0:
                    m = votes[new]
                    if m:
                        buckets[m].discard(new)
                    m += 1
                    votes[new] = m
                    buckets[m].add(new)
                targets[u] = new

    def apply_flips(self, vs) -> list[int]:
        """Flip the given variables and refresh the adjacent constraints."""
        flipped = sorted(vs)
        if not flipped:
            return flipped
        x = self.x
        for v in flipped:
            x[v] ^= 1
        self.ops.flips += len(flipped)
        self._refresh(sorted(self._flip_syndromes(flipped)))
        return flipped


def easy_flip(state: DecodeState, m: int) -> list[int]:
    """Flip every variable holding exactly m votes; returns the flipped set.

    Votes were established by the state invariant: each constraint whose
    restriction decodes to a codeword at distance 1..t votes for its smallest
    mismatching neighbor. Only constraints adjacent to flipped variables are
    re-examined.
    """
    if not 1 <= m <= state.code.graph.c:
        raise ValueError(f"m must be in [1, {state.code.graph.c}]")
    return state.apply_flips(state.buckets[m])


def hard_search(state: DecodeState) -> None:
    """Commit the first flip sequence that cuts the unsatisfied count to
    eps4 * |U|, scanning [c]^s0 in lexicographic order.

    The scan is realized as an iterative backtracking walk with these exact
    shortcuts:

    - a prefix whose count exceeds its pruning bound discards every sequence
      sharing it;
    - a node with no pending votes is frozen, so its whole subtree is decided
      by comparing |U| against the final bounds;
    - sibling digits whose vote bucket is empty lead to identical subtrees,
      so only the first empty digit e is explored;
    - that no-op edge leads to a chain of levels that all hold the same word,
      down to top = min(s0, largest k whose bound |U| meets), read in O(1)
      from the reach table `prune_bounds` at the integer |U|.

    Each chain is one generator, `chain(depth)`. Going down, it tries the
    digits before e level by level while one of them can still pass one
    level deeper; it yields the leaf at s0 when the chain reaches s0; going
    back up, it tries the digits after e, jumping to the deepest level where
    one of them passes. Its `children` flips one bucket at a time, caches
    the largest k at which the result passes, yields the child's depth when
    the flip passes, and undoes the flip when the walk resumes it; it has no
    try/finally, which would undo the accepted sequence as the suspended
    generators are dropped. The main loop keeps a stack of these generators,
    so no recursion is involved.

    Each call thus costs its real bucket flips plus O(c) per chain,
    not one step per level of [c]^s0; the generators add no flip or node
    that these shortcuts do not call for. `ops.nodes` counts the levels the
    walk stands on to try digits, plus each leaf decided. Raises
    NoAcceptableBranch when the scan exhausts, every flip undone.
    """
    params = state.params
    s0 = params.s0
    c = state.code.graph.c
    table = params.prune_bounds
    accept_limit = params.eps4 * state.unsat_count
    buckets = state.buckets
    ops = state.ops

    def reach(u: int) -> int:
        """Largest k <= s0 whose pruning bound u meets, or -1."""
        return table[u] if u < len(table) else -1

    def chain(depth: int):
        """Walk levels depth..top of the current word, yielding the depth of
        each child to enter."""
        e = next((m for m in range(1, c + 1) if not buckets[m]), c + 1)
        top = max(depth, reach(state.unsat_count)) if e <= c else depth
        last = min(top, s0 - 1)
        before = range(1, e)
        after = [m for m in range(e + 1, c + 1) if buckets[m]]
        known = [s0 + 1] * (c + 1)  # reach after flipping m, once tried

        def children(level: int, digits):
            for m in digits:
                if known[m] > level:
                    flipped = state.apply_flips(buckets[m])
                    known[m] = k = reach(state.unsat_count)
                    if k > level:
                        # no try/finally: once a leaf accepts, the dropped
                        # generators must not undo the accepted sequence
                        yield level + 1
                    state.apply_flips(flipped)

        level = depth  # down, while a digit before e can pass one level deeper
        yield from children(level, before)
        while level < last and any(known[m] > level + 1 for m in before):
            level += 1
            ops.nodes += 1
            yield from children(level, before)
        if top == s0:  # the leaf
            yield s0
        if level != last:
            level = last
            ops.nodes += 1
        while True:  # up, to the deepest level where a digit after e passes
            yield from children(level, after)
            level = min(level - 1, max((known[m] for m in after), default=0) - 1)
            if level < depth:
                return
            ops.nodes += 1

    stack = []

    def enter(depth: int) -> bool:
        """Push the chain of the node at `depth` if a vote is pending there;
        otherwise decide it as a leaf, True if it accepted."""
        ops.nodes += 1
        if depth < s0 and any(buckets):
            stack.append(chain(depth))
            return False
        # a frozen node's word must also meet every bound down to s0
        unsat = state.unsat_count
        if unsat > accept_limit or reach(unsat) != s0:
            return False
        return True

    if enter(0):
        return
    while stack:
        depth = next(stack[-1], None)
        if depth is None:
            stack.pop()
        elif enter(depth):
            return
    raise NoAcceptableBranch(
        "no flip sequence reached the required reduction; "
        "the corruption likely exceeds the guaranteed radius"
    )


@dataclass(slots=True)
class DecodeReport:
    input_weight: int = 0
    rounds_used: int = 0
    unsat_per_round: list[int] = field(default_factory=list)
    ops: OpCounters = field(default_factory=OpCounters)
    outcome: str = ""

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "input_weight": self.input_weight,
                "rounds_used": self.rounds_used,
                "unsat_per_round": self.unsat_per_round,
                "checks": self.ops.checks,
                "inner_decodes": self.ops.inner_decodes,
                "flips": self.ops.flips,
                "nodes": self.ops.nodes,
                "outcome": self.outcome,
            },
            separators=(",", ":"),
        )


def main_decode(
    code: TannerCode,
    params: DecoderParams,
    x: BitVector | DecodeState,
    report: DecodeReport | None = None,
) -> BitVector:
    """Full decode: search rounds until no constraint fails, then one
    ascending-order bounded-distance pass of the inner decoder, then a
    membership check. Raises DecodeFailure when the result is not a codeword.

    `x` is the received word or, at the randomized hand-off, a DecodeState
    built on this `code` and `params`; its counters keep running.

    The membership check is `DecodeState.word_is_codeword`: exact, and
    independent of the incremental bookkeeping, but it reads only the
    constraints next to coordinates that differ from the received word, at
    most c * ops.flips of them, instead of making a second pass over all n.
    It is not charged to the counters: it checks the decoder's output rather
    than doing decoding work, and its cost is already bounded by the counted
    flips.
    """
    state = x if isinstance(x, DecodeState) else DecodeState(code, params, x)
    if state.code is not code or state.params is not params:
        raise ValueError("state was built on another code or params")
    report = report or DecodeReport()
    report.input_weight = state.x.count(1)
    report.ops = state.ops
    report.rounds_used = 0
    report.unsat_per_round = [state.unsat_count]
    report.outcome = "failed"
    for _ in range(params.ell):
        if state.unsat_count == 0:
            break
        try:
            hard_search(state)
        except NoAcceptableBranch:
            report.outcome = "no_acceptable_branch"
            raise
        report.rounds_used += 1
        report.unsat_per_round.append(state.unsat_count)
    if state.unsat_count:
        _final_inner_pass(state)
    if state.unsat_count or not state.word_is_codeword():
        report.outcome = "residual_unsat"
        raise DecodeFailure("output fails the membership check")
    report.outcome = "codeword"
    return state.x_vector()


def _final_inner_pass(state: DecodeState) -> None:
    """Rewrite each still-unsatisfied restriction with its decoded codeword,
    refreshing u first: one check and one inner decode, no state change."""
    for u in sorted(state.unsat):
        if u not in state.unsat:
            continue
        state._refresh((u,))
        leader = state._syndrome_table.get(state._syn[u])
        if not leader:
            continue
        coords = state._right_adj[u]
        vs = []
        bits = leader
        while bits:
            low = bits & -bits
            vs.append(coords[low.bit_length() - 1])
            bits ^= low
        state.apply_flips(vs)


@dataclass
class TruthTrace:
    """Ground-truth instrumentation of the current voting state.

    Senders split into those whose inner decode matched the true codeword and
    those that were fooled; bucket m holds the variables with exactly m votes.
    """

    truth: BitVector
    corrupt: frozenset[int]
    correct_senders: frozenset[int]
    confused_senders: frozenset[int]
    flipped_clean: frozenset[int]
    bucket_sizes: tuple[int, ...]
    bucket_corrupt: tuple[int, ...]
    votes_from_correct: tuple[int, ...]

    @property
    def senders(self) -> frozenset[int]:
        return self.correct_senders | self.confused_senders

    def corrupt_fraction(self, m: int) -> float | None:
        if self.bucket_sizes[m] == 0:
            return None
        return self.bucket_corrupt[m] / self.bucket_sizes[m]

    def trusted_vote_fraction(self, m: int) -> float | None:
        if self.bucket_sizes[m] == 0:
            return None
        return self.votes_from_correct[m] / (m * self.bucket_sizes[m])

    def post_flip_corrupt_count(self, m: int) -> int:
        """|F'| if the m-vote bucket were flipped right now."""
        clean_in_bucket = self.bucket_sizes[m] - self.bucket_corrupt[m]
        return len(self.corrupt) - self.bucket_corrupt[m] + clean_in_bucket


def compute_truth_trace(state: DecodeState, truth: BitVector) -> TruthTrace:
    """Classify the current votes against a known transmitted codeword."""
    code = state.code
    if not code.is_codeword(truth):
        raise ValueError("truth must be a codeword")
    corrupt = frozenset(
        v for v in range(code.n) if state.x[v] != truth.bit(v)
    )
    c = code.graph.c
    correct: set[int] = set()
    confused: set[int] = set()
    votes_from_correct = [0] * (c + 1)
    truth_word = truth.to_bytes01()
    for u in range(code.graph.n_right):
        tgt = state.targets[u]
        if tgt < 0:
            continue
        r = code.read_restriction(state.x, u)
        leader = code.inner.leader_for(r)
        truth_bits = code.read_restriction(truth_word, u)
        if r ^ leader == truth_bits:
            correct.add(u)
            votes_from_correct[state.votes[tgt]] += 1
        else:
            confused.add(u)
    sizes = [0] * (c + 1)
    in_corrupt = [0] * (c + 1)
    flipped_clean: set[int] = set()
    for m in range(1, c + 1):
        sizes[m] = len(state.buckets[m])
        for v in state.buckets[m]:
            if v in corrupt:
                in_corrupt[m] += 1
            else:
                flipped_clean.add(v)
    return TruthTrace(
        truth=truth,
        corrupt=corrupt,
        correct_senders=frozenset(correct),
        confused_senders=frozenset(confused),
        flipped_clean=frozenset(flipped_clean),
        bucket_sizes=tuple(sizes),
        bucket_corrupt=tuple(in_corrupt),
        votes_from_correct=tuple(votes_from_correct),
    )


__all__ = [
    "DecodeFailure",
    "NoAcceptableBranch",
    "DecoderParams",
    "derive_params",
    "OpCounters",
    "DecodeState",
    "easy_flip",
    "hard_search",
    "DecodeReport",
    "main_decode",
    "TruthTrace",
    "compute_truth_trace",
]
