"""Deterministic flip decoding with incremental bookkeeping.

The layers, bottom up, each described in full in its own docstring:

- `DecodeState` keeps the word, each failing constraint's inner syndrome
  and each vote's target current through `apply_flips`. Flipping
  `state.buckets[m]` is the decoder's one round: every variable that holds
  exactly m votes.
- `hard_search` scans sequences of rounds in lexicographic order, pruned by
  `DecoderParams.prune_bounds`, and commits the first that cuts the
  unsatisfied count to eps4 * |U|.
- `main_decode` repeats the search until no constraint fails, then makes one
  bounded-distance pass of the inner decoder and a membership check.

`OpCounters` says what each layer charges and what is uncounted.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter, _count_elements
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import AbstractSet

from .gf2 import BitVector
from .tanner import TannerCode

_EMPTY = frozenset()


class DecodeFailure(Exception):
    """The decoder could not produce a codeword (input outside the radius).
    `outcome` names the failure in reports, sweep rows and CLI output."""

    outcome = "residual_unsat"


class NoAcceptableBranch(DecodeFailure):
    """Every flip sequence was exhausted without an acceptable reduction."""

    outcome = "no_acceptable_branch"


@dataclass(frozen=True)
class DecoderParams:
    """Derived schedule for one (graph, inner code, expansion) configuration.

    Every field follows from (c, d, alpha, delta, d0, n): eps0 sits at half
    its allowed maximum and eps1 at 1/200 of its slack. strict_product
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

        Entry u, for 0 <= u <= b_0, is the largest k <= s0 with u <= b_k =
        c*gamma*n * (1-eps3)^k, the paper's bound after step k; a count past
        the table meets no bound. Each entry is read off the logarithm, then
        stepped by one while the float b_k says so, so the table costs
        O(c*gamma*n), not O(s0): 42 entries at n = 2000, where s0 = 67,607."""
        s0, shrink = self.s0, 1.0 - self.eps3
        top = self.c * self.gamma * self.n
        table = [s0]
        for u in range(1, math.floor(top) + 1):
            k = min(s0, math.floor(math.log(u / top) / math.log(shrink)))
            while k < s0 and u <= top * shrink ** (k + 1):
                k += 1
            while u > top * shrink**k:  # b_0 = top >= u stops it
                k -= 1
            table.append(k)
        return tuple(table)


def derive_params(
    c: int,
    d: int,
    alpha: float,
    delta: float,
    d0: int,
    n: int,
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
    eps0 = 0.5 * min((d0 + 1 - 3 / delta) / 2, (t + 1) - 1 / delta)
    if not (d0 > 3 / delta - 1 + 2 * eps0 and math.floor(1 / delta + eps0) == t):
        raise ValueError("eps0 outside its admissible range")
    eps1 = eps0 * delta**2 / 200
    if not 0 < eps1 < eps0 * delta**2 / 100:
        raise ValueError("eps1 outside its admissible range")
    eps2 = eps1 / (c + 1) * (delta * (t + 1) - 1) / t
    eps3 = eps2 * (2 * (1 - eps1) * (0.5 + eps0 * delta**2 / 2) - 1)
    if eps3 <= 0:
        raise ValueError("eps3 is not positive; parameter pathology")
    log_shrink = math.log(1 - eps3)
    if log_shrink == 0:
        raise ValueError(
            f"eps3 = {eps3:.3g} is too small for 1 - eps3 to differ from 1; "
            "parameter pathology"
        )
    eps4 = (delta * d0 - 1) / (d0 - 1) * (1 - eps3)
    gamma = 2 * alpha / (d0 * (1 + 0.5 * c * delta))
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
    to try digits, plus each leaf it decides.

    `checks` counts constraints examined: set-up charges every constraint,
    `apply_flips` each constraint next to the flips and `_final_inner_pass`
    each one it takes. A constraint's kept syndrome is its check and, by one
    lookup that also re-aims its vote, its inner decode, so `inner_decodes`
    is a read-only property equal to `checks`, and `total` counts each check
    twice. Uncounted: the vote views' work (`DecodeState.votes` and
    `buckets`, per search node and per randomized iteration; patching the
    kept counts costs per constraint a flip touches, whose check is counted)
    and the closing membership check."""

    checks: int = 0
    flips: int = 0
    nodes: int = 0

    @property
    def inner_decodes(self) -> int:
        return self.checks

    def total(self) -> int:
        return 2 * self.checks + self.flips + self.nodes


class DecodeState:
    """Mutable decoding state over an immutable code.

    The state is the word, its syndromes and its votes' targets. Invariant
    at every operation boundary: `x` holds the current word as 0/1 bytes;
    `_syn` maps each constraint whose restriction of `x` has a nonzero inner
    syndrome to that syndrome, so `unsat`, its key view, is exactly the set
    of failing constraints; and `_tgt` maps each constraint whose syndrome
    is in `vote_slots` to its neighbor at that slot, the variable it votes
    for. A constraint absent from `_syn` has syndrome 0 and sends no vote,
    so a state costs memory per failing constraint, not per coordinate. A
    flip is undone by flipping the same variables again, which is how the
    search backs out of a branch.

    `targets` is a read-only view of `_tgt`; `votes` maps each variable with
    at least one vote to its count, and `buckets[m]` holds the variables
    with exactly m votes (`buckets[0]` stays empty). Both read `_counts`,
    which is None or a plain dict equal to `Counter(_tgt.values())`,
    reading no neighborhood. It is counted on the first read after set-up
    (`_vote_counts`) and then kept: `apply_flips` patches it from the old
    and new targets of the constraints it touches, the set it charges,
    unless it touches more than an eighth as many constraints as hold a
    target. Then the counts are dropped, and the next read counts them off
    the targets: a patch costs about five counts per touched constraint,
    paid again by the undo of a search flip, so patching and counting again
    break even near a tenth; the eighth was picked near that, not tuned.
    `buckets` is grouped in one pass over the counts on each read; a state
    with no targets returns at once.

    A flip, `_flip`, walks each flipped variable's edges once. It XORs the
    variable's byte, and on the edge from v to u, j being v's slot in u's
    neighborhood (read from v's row of the graph's `slots`), it XORs
    the syndrome of the unit vector at j into u's syndrome s and re-aims
    u's vote: no vote if s is 0 or not in `vote_slots`, v itself if
    `vote_slots[s]` is j, and otherwise `right_adj[u][vote_slots[s]]`, the
    one neighborhood read left. A constraint with no `_syn` entry goes
    straight to the column syndrome and a vote for v: d0 >= 3 and t >= 1
    (both checked), so a unit error is its own coset leader and votes for
    its own slot. On a sparse word only a constraint next to two flipped
    variables reaches the neighborhood read. No restriction is read, and
    the end state does not depend on the order of the edges: each entry is
    a function of the constraint's final syndrome.

    Set-up is the flip of supp(x) from the zero word, whose state is the
    initial one: every syndrome 0, so `_syn` and `_tgt` are empty, and no
    counts are kept. It reads the 1-positions from x's packed bits and
    flips them, so only the constraints next to the 1-coordinates of x get
    an entry, at most c * |x| of them, and only those it meets twice or
    more can read their neighborhood. It never makes a whole-word pass and
    charges no flips. It is still charged one check per constraint: it
    decides every constraint's entry, those away from the support by
    linearity, and the flat charge keeps a report a function of the syndrome
    alone (decoding truth + e and e give equal reports).
    """

    def __init__(self, code: TannerCode, params: DecoderParams, x: BitVector) -> None:
        if x.n != code.n:
            raise ValueError(f"length mismatch: expected {code.n}, got {x.n}")
        graph = code.graph
        shape = (graph.c, graph.d, code.inner.d0, code.n)
        if (params.c, params.d, params.d0, params.n) != shape:
            raise ValueError(f"params were derived for another code than (c, d, d0, n) = {shape}")
        if code.inner.d0 < 3 or params.t < 1:
            raise ValueError(
                f"flip decoding needs d0 >= 3 and t >= 1, got d0 = {code.inner.d0} "
                f"and t = {params.t}: a unit error must vote for its own slot"
            )
        self.code = code
        self.params = params
        self._c = graph.c
        self._left_adj = graph.left_adj
        self._right_adj = graph.right_adj
        self._slots = graph.slots
        self._column_syndromes = code.inner.column_syndromes
        self._vote_slots = code.inner.vote_slots(params.t)
        self.x = bytearray(x.n)
        self._syn = {}
        self._tgt = {}
        self._counts = None
        self._flip(x.indices())
        self.ops = OpCounters(checks=graph.n_right)

    @property
    def unsat(self):
        """The failing constraints: a live view of `_syn`'s keys."""
        return self._syn.keys()

    @property
    def targets(self) -> MappingProxyType[int, int]:
        """Each voting constraint's target, its neighbor at the slot that
        `vote_slots` gives its syndrome: a live, read-only view of the map
        the flips keep, so no caller can put it out of step."""
        return MappingProxyType(self._tgt)

    @property
    def votes(self) -> Counter:
        """Each variable's vote count, for the variables with a vote: a copy
        of the kept counts."""
        return Counter(self._vote_counts())

    @property
    def buckets(self) -> list[AbstractSet[int]]:
        """`buckets[m]` is the set of variables with exactly m votes; a
        bucket's set is made when its first variable arrives, and the empty
        ones are one shared frozenset."""
        buckets = [_EMPTY] * (self._c + 1)
        if self._tgt:
            for v, m in self._vote_counts().items():
                bucket = buckets[m]
                if bucket is _EMPTY:
                    bucket = buckets[m] = set()
                bucket.add(v)
        return buckets

    def _vote_counts(self) -> dict[int, int]:
        """The kept counts, counted off the targets first if none are kept.
        They are a plain dict, whose item reads and writes the interpreter
        runs faster than a `Counter`'s in the patch loops, counted into
        directly by `collections._count_elements`, the C loop of
        `Counter.update`, with no `Counter` built and copied."""
        counts = self._counts
        if counts is None:
            counts = self._counts = {}
            _count_elements(counts, self._tgt.values())
        return counts

    def x_vector(self) -> BitVector:
        return BitVector.from_bytes01(self.x)

    def _flip(self, vs) -> None:
        """Flip each variable in vs, XOR its column syndromes into the
        syndromes of the constraints next to it and re-aim their votes, one
        pass over its edges: its `left_adj` row zipped with its slot row."""
        left_adj, slots = self._left_adj, self._slots
        x, syn, columns = self.x, self._syn, self._column_syndromes
        tgt, vote_slots, right_adj = self._tgt, self._vote_slots, self._right_adj
        for v in vs:
            x[v] ^= 1
            for u, j in zip(left_adj[v], slots[v]):
                if u not in syn:  # a unit error: its own leader (d0 >= 3)
                    syn[u] = columns[j]
                    tgt[u] = v
                    continue
                s = syn[u] ^ columns[j]
                if s:
                    syn[u] = s
                    k = vote_slots.get(s)
                    if k == j:  # u votes for v itself
                        tgt[u] = v
                    elif k is None:
                        tgt.pop(u, None)
                    else:
                        tgt[u] = right_adj[u][k]
                else:  # u held the unit syndrome columns[j], which votes
                    del syn[u]
                    del tgt[u]

    def apply_flips(self, vs) -> list[int]:
        """Flip the given variables (a sized collection), bring the adjacent
        constraints up to date and patch or drop the kept vote counts
        (`DecodeState`), charging one check per distinct constraint next to
        them: for one variable, its `left_adj` row as it stands, which holds
        distinct constraints since `BipartiteGraph` rejects a repeated
        neighbor. Returns the flipped variables as a list."""
        if len(vs) == 1:  # a simple graph: its row is distinct constraints
            flipped = list(vs)
            touched = self._left_adj[flipped[0]]
        else:
            flipped = sorted(vs)
            if not flipped:
                return flipped
            touched = set().union(*map(self._left_adj.__getitem__, flipped))
        ops = self.ops
        ops.flips += len(flipped)
        ops.checks += len(touched)
        counts, tgt = self._counts, self._tgt
        if counts is None or 8 * len(touched) > len(tgt):
            self._counts = None
            self._flip(flipped)
            return flipped
        for u in touched:
            if u in tgt:
                v = tgt[u]
                m = counts[v] - 1
                if m:
                    counts[v] = m
                else:
                    del counts[v]
        self._flip(flipped)
        get = counts.get
        for u in touched:
            if u in tgt:
                v = tgt[u]
                counts[v] = get(v, 0) + 1
        return flipped


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

    Each chain is one generator, `chain(depth, buckets)`. It finds e with
    a plain loop. Going down, it tries the digits before e level by level
    while one of them can still pass one level deeper (with e = 1, usual on
    a sparse word, there is none, so no down-walk runs); it yields the leaf
    at s0 when the chain reaches s0; going back up, it tries the digits
    after e, jumping to the deepest level where one of them passes. Its
    `children` flips one bucket at a time, caches the largest k at which
    the result passes, yields the child's depth when
    the flip passes, and undoes the flip when the walk resumes it; it has no
    try/finally, which would undo the accepted sequence as the suspended
    generators are dropped. The main loop keeps a stack of these generators,
    so no recursion is involved.

    Each node entered below s0 reads its buckets once
    (`DecodeState.buckets`), reading no neighborhood, and hands them to its
    chain. They stay exact for the whole chain: every child flip is undone
    before the chain flips its next digit, so the chain's word holds. A
    read costs the node's voted variables, plus a count of its stored
    targets when a wide flip dropped the kept counts (`DecodeState`). This
    read is not charged to the counters. A node stores at most one target
    per failing constraint, and every entered node but the root passed a
    bound, so its |U| is at most c*gamma*n; a call reads at most |U| +
    ops.nodes * c*gamma*n stored targets, |U| being the root's count and
    ops.nodes the nodes the call counts.

    The generators add no flip or node that these shortcuts do not call
    for, yet a call can cost more than its real bucket flips plus O(c) per
    chain: a passing digit before e is explored again at every chain level
    where it still passes, and the down loop steps one level at a time, the
    one O(s0) risk left (ROADMAP item 4). `ops.nodes` counts the levels the
    walk stands on to try digits, plus each leaf decided. Raises
    NoAcceptableBranch when the scan exhausts, every flip undone.
    """
    params = state.params
    s0 = params.s0
    c = state.code.graph.c
    table = params.prune_bounds
    unsat = state.unsat
    accept_limit = params.eps4 * len(unsat)
    ops = state.ops
    apply_flips = state.apply_flips

    def reach(u: int) -> int:
        """Largest k <= s0 whose pruning bound u meets, or -1."""
        return table[u] if u < len(table) else -1

    def chain(depth: int, buckets: list[AbstractSet[int]]):
        """Walk levels depth..top of the current word, whose buckets are
        `buckets`, yielding the depth of each child to enter."""
        e = 1
        while e <= c and buckets[e]:
            e += 1
        top = max(depth, reach(len(unsat))) if e <= c else depth
        last = min(top, s0 - 1)
        after = [m for m in range(e + 1, c + 1) if buckets[m]]
        known = [s0 + 1] * (c + 1)  # reach after flipping m, once tried

        def children(level: int, digits):
            for m in digits:
                if known[m] > level:
                    flipped = apply_flips(buckets[m])
                    known[m] = k = reach(len(unsat))
                    if k > level:
                        # no try/finally: once a leaf accepts, the dropped
                        # generators must not undo the accepted sequence
                        yield level + 1
                    apply_flips(flipped)

        level = depth
        if e > 1:  # down, while a digit before e can pass one level deeper
            before = range(1, e)
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
        if depth < s0:
            buckets = state.buckets
            if any(buckets):
                stack.append(chain(depth, buckets))
                return False
        # a frozen node's word must also meet every bound down to s0
        count = len(unsat)
        return count <= accept_limit and reach(count) == s0

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
    unsat_per_round: list[int] = field(default_factory=list)
    ops: OpCounters = field(default_factory=OpCounters)
    outcome: str = ""

    @property
    def rounds_used(self) -> int:
        return max(0, len(self.unsat_per_round) - 1)

    def to_dict(self) -> dict:
        return {
            "input_weight": self.input_weight,
            "rounds_used": self.rounds_used,
            "unsat_per_round": self.unsat_per_round,
            "checks": self.ops.checks,
            "inner_decodes": self.ops.inner_decodes,
            "flips": self.ops.flips,
            "nodes": self.ops.nodes,
            "outcome": self.outcome,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


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

    The membership check is `code.failing_constraints` on the output word:
    exact, and independent of the incremental bookkeeping, since it reads
    only the word and the code. It reads the constraints next to the
    output's 1-coordinates, at most c * |output| of them and none for the
    zero word. It is not charged to the counters: it checks the decoder's
    output rather than doing decoding work.
    """
    if isinstance(x, DecodeState):
        state, weight = x, x.x.count(1)
    else:
        state, weight = DecodeState(code, params, x), x.weight()
    if state.code is not code or state.params is not params:
        raise ValueError("state was built on another code or params")
    report = report or DecodeReport()
    report.input_weight = weight
    report.ops = state.ops
    unsat = state.unsat
    report.unsat_per_round = [len(unsat)]
    report.outcome = "failed"
    try:
        for _ in range(params.ell):
            if not unsat:
                break
            hard_search(state)
            report.unsat_per_round.append(len(unsat))
        if unsat:
            _final_inner_pass(state)
        if unsat or code.failing_constraints(state.x):
            raise DecodeFailure("output fails the membership check")
    except DecodeFailure as exc:
        report.outcome = exc.outcome
        raise
    report.outcome = "codeword"
    return state.x_vector()


def _final_inner_pass(state: DecodeState) -> None:
    """Rewrite each still-unsatisfied restriction with its decoded codeword,
    in ascending order of constraint. The state keeps every syndrome current,
    so the coset leader is one lookup of u's syndrome; each constraint taken
    is charged one check, whose lookup is its inner decode, and one with no
    leader within the inner radius is left as it is."""
    table = state.code.inner.syndrome_table
    ops = state.ops
    for u in sorted(state.unsat):
        syndrome = state._syn.get(u)
        if syndrome is None:  # an earlier rewrite repaired u
            continue
        ops.checks += 1
        leader = table.get(syndrome)
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
    corrupt = frozenset((state.x_vector() ^ truth).indices())
    c = code.graph.c
    correct: set[int] = set()
    confused: set[int] = set()
    votes_from_correct = [0] * (c + 1)
    truth_word = truth.to_bytes01()
    targets, votes, buckets = state.targets, state.votes, state.buckets
    for u, tgt in sorted(targets.items()):
        r = code.read_restriction(state.x, u)
        leader = code.inner.leader_for(r)
        truth_bits = code.read_restriction(truth_word, u)
        if r ^ leader == truth_bits:
            correct.add(u)
            votes_from_correct[votes[tgt]] += 1
        else:
            confused.add(u)
    sizes = [0] * (c + 1)
    in_corrupt = [0] * (c + 1)
    for m in range(1, c + 1):
        sizes[m] = len(buckets[m])
        for v in buckets[m]:
            if v in corrupt:
                in_corrupt[m] += 1
    return TruthTrace(
        truth=truth,
        corrupt=corrupt,
        correct_senders=frozenset(correct),
        confused_senders=frozenset(confused),
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
    "hard_search",
    "DecodeReport",
    "main_decode",
    "TruthTrace",
    "compute_truth_trace",
]
