from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pickle
import random
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import tannerflip as tf
import tannerflip.gf2 as gf2
from tannerflip.gf2 import BitVector
from tannerflip.graphs import BipartiteGraph
from tannerflip.inner import parity_check_code, repetition_code
from tannerflip.tanner import TannerCode, corrupt

from conftest import (
    assert_no_dead_entries,
    assert_state_consistent,
    ext_hamming_inner,
    reference_bounds,
    reference_syndromes,
    reference_votes,
    scan_small_code,
    wide_small_code,
)


class Recorded(tuple):
    """An adjacency table that records each index it is read at."""

    def __new__(cls, table, log):
        self = super().__new__(cls, table)
        self.log = log
        return self

    def __getitem__(self, i):
        self.log.append(i)
        return super().__getitem__(i)


def blocks_graph(blocks: int, d: int) -> BipartiteGraph:
    return BipartiteGraph(1, d, [[v // d] for v in range(blocks * d)])


class TestDeriveParams:
    def test_k32_schedule(self):
        p = tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3)
        assert p.t == 1
        assert p.eps0 == pytest.approx(0.25)
        assert p.gamma == pytest.approx(1 / 9)
        assert p.s0 == 1
        assert p.ell == 0

    def test_large_schedule(self):
        p = tf.derive_params(c=12, d=8, alpha=0.1, delta=0.8, d0=4, n=10**4)
        assert p.t == 1
        assert p.eps0 == pytest.approx(0.3125)
        assert p.gamma == pytest.approx(0.008620689655)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            tf.derive_params(c=2, d=4, alpha=0.25, delta=1.0, d0=2, n=4)

    def test_gap_configuration_warns(self):
        with pytest.warns(UserWarning):
            p = tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3)
        assert not p.strict_product
        q = tf.derive_params(c=12, d=8, alpha=0.02, delta=0.8, d0=4, n=2000)
        assert q.strict_product

    def test_invariant_identities(self):
        for args in ((2, 3, 1 / 3, 1.0, 3, 3), (12, 8, 0.02, 0.8, 4, 2000)):
            c, d, alpha, delta, d0, n = args
            p = tf.derive_params(c=c, d=d, alpha=alpha, delta=delta, d0=d0, n=n)
            assert p.t == math.floor(1 / delta)
            assert d0 > 3 / delta - 1 + 2 * p.eps0
            assert math.floor(1 / delta + p.eps0) == p.t
            assert 0 < p.eps1 < p.eps0 * delta**2 / 100
            assert p.eps2 == pytest.approx(
                p.eps1 / (c + 1) * (delta * (p.t + 1) - 1) / p.t
            )
            assert p.eps3 > 0
            assert p.eps4 == pytest.approx(
                (delta * d0 - 1) / (d0 - 1) * (1 - p.eps3)
            )
            assert p.gamma == pytest.approx(2 * alpha / (d0 * (1 + 0.5 * c * delta)))

    @pytest.mark.parametrize("delta, d0", [(0.50001, 7), (0.33334, 10)])
    def test_delta_just_above_reciprocal_rejected(self, delta, d0):
        # 1/delta sits just under t + 1, so eps0, and with it eps3, is so
        # small that 1 - eps3 rounds to 1 and log(1 - eps3) is 0
        with pytest.raises(ValueError, match="eps3 .* too small"):
            tf.derive_params(c=12, d=8, alpha=0.02, delta=delta, d0=d0, n=2000)

    @pytest.mark.parametrize(
        "field, size", [("c", 0), ("d", 0), ("n", 0), ("n", -5), ("c", -1)]
    )
    def test_non_positive_size_rejected(self, field, size):
        args = dict(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3)
        args[field] = size
        with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
            tf.derive_params(**args)


def assert_reach_exact(params: tf.DecoderParams) -> None:
    """For every integer count u up to just past c*gamma*n, the reach table
    gives the largest k <= s0 with u <= b_k (-1 for none), as a bisect over
    the reference floats does."""
    table = params.prune_bounds
    descending = [-b for b in reference_bounds(params)]
    for u in range(math.floor(params.c * params.gamma * params.n) + 3):
        expected = bisect_right(descending, -u) - 1
        assert (table[u] if u < len(table) else -1) == expected, u


def two_overlapping_blocks_8_2_5() -> tf.InnerCode:
    """[8,2,5] code spanned by 11111000 and 00011111 (coordinates 0-4 and
    3-7), its checks the kernel of that generator."""
    g = gf2.BitMatrix.from_rows([[1] * 5 + [0] * 3, [0] * 3 + [1] * 5])
    kernel = gf2.nullspace_basis(g)
    h = gf2.BitMatrix(len(kernel), 8, tuple(v.bits for v in kernel))
    return tf.InnerCode.from_parity_check(h)


class TestReachTable:
    @pytest.mark.parametrize("n", [800, 2000, 32000])
    def test_bench_params(self, n):
        assert_reach_exact(tf.derive_params(12, 8, 0.02, 0.8, 4, n))

    def test_formula_not_recurrence(self, k32_params):
        # b_3 is exactly 2.0 by the recurrence b_(k+1) = b_k * (1 - eps3)
        # and just below it by the formula, which the table follows
        params = dataclasses.replace(
            k32_params, s0=3, eps3=0.3, gamma=0.9718172983479106
        )
        assert_reach_exact(params)
        assert params.prune_bounds[2] == 2

    def test_log_estimate_stepped_up(self, k32_params):
        # b_1 = 57.333... * 0.75 is exactly 43.0, but the logarithm puts
        # u = 43 just short of step 1
        params = dataclasses.replace(
            k32_params, c=1, n=1, gamma=57.33333333333333, eps3=0.25, s0=60
        )
        assert reference_bounds(params, 1)[1] == 43.0
        assert math.floor(math.log(43 / params.gamma) / math.log(0.75)) == 0
        assert_reach_exact(params)
        assert params.prune_bounds[43] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(0.001, 4.0),
        eps3=st.floats(1e-6, 0.99),
        s0=st.integers(0, 60),
        c=st.integers(1, 12),
        n=st.integers(1, 40),
    )
    def test_small_schedules(self, gamma, eps3, s0, c, n):
        base = tf.derive_params(c=12, d=8, alpha=0.02, delta=0.8, d0=4, n=2000)
        params = dataclasses.replace(base, c=c, n=n, gamma=gamma, eps3=eps3, s0=s0)
        assert_reach_exact(params)

    def test_params_pickle_small(self, big_params):
        assert len(big_params.prune_bounds) == 42
        assert len(pickle.dumps(big_params)) < 10_000

    @pytest.mark.parametrize(
        "delta, inner",
        [(0.5001, two_overlapping_blocks_8_2_5), (0.3335, lambda: repetition_code(8))],
        ids=["8-2-5", "rep8"],
    )
    def test_huge_s0(self, big_code, delta, inner):
        # delta just above 1/t drives s0 past 10^15: the table costs per
        # entry, and a decode that reaches the search returns at once
        code = TannerCode(big_code.graph, inner())
        params = tf.derive_params(12, 8, 0.02, delta, code.inner.d0, 2000)
        assert params.s0 > 10**15
        start = time.perf_counter()
        table = params.prune_bounds
        assert time.perf_counter() - start < 1.0
        # entry u is the largest k <= s0 with u <= b_k, checked at k and k + 1
        top, shrink = params.c * params.gamma * params.n, 1.0 - params.eps3
        for u, k in enumerate(table):
            assert u <= top * shrink**k, u
            assert k == params.s0 or u > top * shrink ** (k + 1), u
        zero = BitVector.zeros(code.n)
        for weight in (1, 3):
            report = tf.DecodeReport()
            out = tf.main_decode(code, params, corrupt(zero, weight, seed=1), report=report)
            assert out == zero and report.rounds_used >= 1


def reference_setup(code: TannerCode, params, x: BitVector) -> SimpleNamespace:
    """The set-up from definitions, as the fields of a state: every
    constraint's syndrome read from the word, every vote decided by
    `decode_bounded` on its restriction, and one check and one inner decode
    charged per constraint."""
    syndromes = reference_syndromes(code, x.to_bytes01())
    unsat, targets, votes = reference_votes(code, params, x)
    buckets = [set() for _ in range(code.graph.c + 1)]
    for v, m in votes.items():
        buckets[m].add(v)
    n_right = code.graph.n_right
    return SimpleNamespace(
        _syn={u: s for u, s in enumerate(syndromes) if s},
        unsat=unsat,
        targets=targets,
        votes=dict(votes),
        buckets=buckets,
        ops=tf.OpCounters(checks=n_right),
    )


class TestDecodeState:
    def test_initial_bookkeeping(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        assert st._syn.keys() == st.unsat == {0, 1}
        assert st.targets == {0: 0, 1: 0}
        assert st.votes == {0: 2}
        assert st.buckets[2] == {0}
        assert_state_consistent(st, k32_code, k32_params)

    def test_targets_is_read_only(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        targets = st.targets
        with pytest.raises(TypeError):
            targets[0] = 1
        with pytest.raises(TypeError):
            del targets[1]
        with pytest.raises(AttributeError):
            targets.clear()
        assert targets == {0: 0, 1: 0}
        assert_state_consistent(st, k32_code, k32_params)
        # a live view of the kept map, as `unsat` is of the syndromes
        st.apply_flips(st.buckets[2])
        assert targets == {} and len(st.unsat) == 0

    def test_consistency_random(self, big_code, big_params):
        rng = random.Random(7)
        truth = BitVector.zeros(big_code.n)
        for trial in range(5):
            x = corrupt(truth, rng.randint(0, 40), seed=trial)
            st = tf.DecodeState(big_code, big_params, x)
            assert_state_consistent(st, big_code, big_params)

    def test_consistency_after_flips(self, k32_code, k32_params):
        for bits in range(8):
            st = tf.DecodeState(k32_code, k32_params, BitVector(3, bits))
            for m in (1, 2, 1):
                st.apply_flips(st.buckets[m])
                assert_state_consistent(st, k32_code, k32_params)

    def test_setup_matches_examining_every_constraint(
        self, k32_code, k32_params, big_code, big_params, dim3_code
    ):
        wide, wide_params = wide_small_code()
        rng = random.Random(13)
        cases = [(k32_code, k32_params, BitVector(3, bits)) for bits in range(8)]
        for code, params in ((big_code, big_params), (wide, wide_params)):
            zero = BitVector.zeros(code.n)
            cases += [(code, params, corrupt(zero, w, seed=w)) for w in (0, 1, 3, 40)]
            cases += [(code, params, BitVector(code.n, rng.getrandbits(code.n)))
                      for _ in range(3)]
        # dense inputs: every codeword of the dim-3 code, which are far from
        # zero, plus a few errors, and random words
        dim3, dim3_params = dim3_code
        for truth in dim3.codewords():
            cases += [(dim3, dim3_params, corrupt(truth, w, seed=30 + w)) for w in (0, 1, 3, 9)]
        cases += [(dim3, dim3_params, BitVector(dim3.n, rng.getrandbits(dim3.n)))
                  for _ in range(8)]
        assert sum(x.weight() > code.n // 3 for code, _, x in cases) >= 20
        for code, params, x in cases:
            st = tf.DecodeState(code, params, x)
            ref = reference_setup(code, params, x)
            assert st._syn == ref._syn
            assert st.unsat == ref.unsat
            assert st.targets == ref.targets
            assert st.votes == ref.votes
            assert st.buckets == ref.buckets
            assert st.ops == ref.ops
            assert st.ops.inner_decodes == ref.ops.inner_decodes == code.graph.n_right
            assert_no_dead_entries(st)

    def test_constraint_visited_twice_in_one_pass(self, big_code, big_params, dim3_code):
        # a flip walks each variable's edges once, so a constraint next to
        # two flipped variables is met twice in one pass: two coordinates
        # of one restriction, a bucket plus a neighbour of one of its
        # variables, and each set flipped again
        rng = random.Random(22)
        for code, params in ((big_code, big_params), dim3_code, wide_small_code()):
            graph = code.graph

            def flip(st, vs):
                touched = {u for v in vs for u in graph.left_adj[v]}
                assert len(touched) < graph.c * len(vs)  # some constraint twice
                ops = dataclasses.replace(st.ops)
                st.apply_flips(vs)
                assert_state_consistent(st, code, params)
                assert_no_dead_entries(st)
                assert st.ops.checks - ops.checks == len(touched)
                assert st.ops.inner_decodes - ops.inner_decodes == len(touched)

            sparse = corrupt(BitVector.zeros(code.n), 3, seed=graph.c)
            dense = BitVector(code.n, rng.getrandbits(code.n))
            for x in (sparse, dense):
                st = tf.DecodeState(code, params, x)
                word = bytes(st.x)
                pair = graph.right_adj[rng.randrange(graph.n_right)][:2]
                flip(st, pair)
                flip(st, pair)
                assert bytes(st.x) == word
                v = next(v for v in range(code.n) if st.votes.get(v))
                bucket = set(st.buckets[st.votes[v]])
                near = {w for u in graph.left_adj[v] for w in graph.right_adj[u]}
                vs = bucket | {min(near - bucket)}
                flip(st, vs)
                flip(st, vs)
                assert bytes(st.x) == word

    def test_vote_aimed_away_from_the_flipped_variable(self, dim3_code):
        # a constraint hit twice, then left with one error, votes for the
        # variable flipped first, not for the one whose edge the pass is on:
        # that vote's target is read from the constraint's neighborhood
        rng = random.Random(29)
        for code, params in (dim3_code, wide_small_code()):
            graph = code.graph
            zero = BitVector.zeros(code.n)
            words = [zero, *itertools.islice(code.codewords(), 1, 4),
                     BitVector(code.n, rng.getrandbits(code.n))]
            for word in words:
                st = tf.DecodeState(code, params, word)
                rows = st._right_adj = Recorded(graph.right_adj, [])
                for u in rng.sample(range(graph.n_right), 4):
                    va, vb, ve = rng.sample(graph.right_adj[u], 3)
                    # va alone, vb beside it, va undone, vb undone, then all
                    # three in one pass; twice, the second time from there
                    for step, vs in enumerate(([va], [vb], [va], [vb], [va, vb, ve]) * 2):
                        rows.log.clear()
                        st.apply_flips(vs)
                        assert_state_consistent(st, code, params)
                        assert_no_dead_entries(st)
                        if word == zero and step == 2:
                            assert rows.log == [u] and st.targets[u] == vb
                    assert bytes(st.x) == word.to_bytes01()

    def test_setup_keeps_a_failing_constraint_beyond_the_radius(
        self, big_code, big_params
    ):
        # two errors in one [8,4,4] restriction: its leader is None, which is
        # falsy but still a failing constraint, for set-up and closing check
        u = 0
        x = BitVector.from_indices(big_code.n, big_code.graph.right_adj[u][:2])
        st = tf.DecodeState(big_code, big_params, x)
        assert big_code.inner.leader_for(big_code.read_restriction(st.x, u)) is None
        assert u in st.unsat
        assert u not in st.targets
        assert st.unsat == reference_setup(big_code, big_params, x).unsat
        assert u in big_code.failing_constraints(st.x)
        assert big_code.failing_constraints(st.x) == sorted(st.unsat)

    def test_decode_allocates_per_error_not_per_coordinate(self):
        # the state keeps only its nonzero syndromes, so one decode of a
        # 3-error word allocates far less than the 8 bytes per coordinate
        # that even one list of n ints takes; the word's own 0/1 bytes are
        # the only per-coordinate allocation (fresh code and params, so the
        # cached vote map and reach table are built inside the measurement)
        n = 8000
        code = TannerCode(tf.gen_random_biregular(12, 8, n, seed=3), ext_hamming_inner())
        params = tf.derive_params(12, 8, 0.02, 0.8, 4, n)
        x = corrupt(BitVector.zeros(n), 3, seed=1)
        tracemalloc.start()
        try:
            out = tf.main_decode(code, params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == BitVector.zeros(n)
        assert peak < 8 * n

    def test_param_length_mismatch(self, k32_code):
        p = tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=6)
        with pytest.raises(ValueError):
            tf.DecodeState(k32_code, p, BitVector.zeros(3))

    @pytest.mark.parametrize(
        "c, d, d0", [(12, 8, 6), (11, 8, 4), (12, 9, 4), (12, 8, 5)]
    )
    def test_params_for_another_code(self, big_code, c, d, d0):
        # same n, so only (c, d, d0) tells the schedule is not this code's
        p = tf.derive_params(c=c, d=d, alpha=0.02, delta=0.8, d0=d0, n=2000)
        x = corrupt(BitVector.zeros(big_code.n), 3, seed=1)
        with pytest.raises(ValueError, match="params were derived for"):
            tf.DecodeState(big_code, p, x)
        with pytest.raises(ValueError, match="params were derived for"):
            tf.main_decode(big_code, p, x)

    def test_rejects_a_unit_error_without_a_vote(self, k32_code, k32_params):
        # a fresh syndrome is set in one step to the column and a vote for
        # the flipped variable, which holds only when a unit error is its
        # own coset leader (d0 >= 3) and leaders of weight 1 vote (t >= 1);
        # derive_params yields neither failure, a hand-built schedule can
        parity = TannerCode(k32_code.graph, parity_check_code(3))
        assert parity.inner.d0 == 2 and not parity.inner.vote_slots(1)
        x = BitVector.from_text("100")
        cases = [(parity, dataclasses.replace(k32_params, d0=2)),
                 (k32_code, dataclasses.replace(k32_params, t=0))]
        for code, params in cases:
            with pytest.raises(ValueError, match="d0 >= 3 and t >= 1"):
                tf.DecodeState(code, params, x)
            with pytest.raises(ValueError, match="d0 >= 3 and t >= 1"):
                tf.main_decode(code, params, x)

    def test_kept_counts_are_patched_or_dropped(self, big_code, big_params):
        # the counts are counted on the first read, then each small flip
        # patches the same object from the touched constraints' targets:
        # a constraint met twice in one pass, an immediate undo, single
        # variables and voted ones, on codes with t = 1 and t = 2 whose
        # votes can aim away from the flipped variable
        rng = random.Random(32)
        cases = [
            (big_code, big_params),
            (TannerCode(tf.gen_random_biregular(3, 12, 2400, seed=0),
                        wide_small_code()[0].inner),
             tf.derive_params(3, 12, 0.25, 0.8, 4, 2400)),
            (TannerCode(tf.gen_random_biregular(2, 8, 1280, seed=3), ext_hamming_inner()),
             tf.derive_params(2, 8, 0.3, 1.0, 4, 1280)),
            (TannerCode(tf.gen_random_biregular(2, 6, 600, seed=4), repetition_code(6)),
             tf.derive_params(2, 6, 0.3, 0.5, 6, 600)),
        ]
        assert cases[-1][1].t == 2
        for code, params in cases:
            graph = code.graph
            # about one error per restriction, so that many constraints vote
            x = BitVector.from_indices(code.n, rng.sample(range(code.n), code.n // graph.d))
            st = tf.DecodeState(code, params, x)
            assert st._counts is None
            st.buckets
            counts = st._counts
            assert counts == Counter(st.targets.values())

            def flip(vs):
                st.apply_flips(vs)
                assert st._counts is counts  # patched, not counted again
                assert dict(counts) == Counter(st.targets.values())
                assert_state_consistent(st, code, params)

            assert len(st.targets) > 3 * 8 * 2 * graph.c  # room for 2-variable patches
            for u in rng.sample(range(graph.n_right), 3):
                pair = graph.right_adj[u][:2]
                flip(pair)
                flip(pair)
            for _ in range(4):
                v = rng.choice(sorted(st.votes))
                flip([v])
                flip([v, rng.randrange(code.n)])
            for _ in range(8):
                flip([rng.randrange(code.n)])
            # a flip that touches most voting constraints drops the counts,
            # and the next read counts them again
            wide = sorted({graph.right_adj[u][0] for u in st.targets})
            st.apply_flips(wide)
            assert st._counts is None
            assert_state_consistent(st, code, params)
            assert dict(st._counts) == Counter(st.targets.values())

    def test_one_variable_flip(self, big_code, big_params):
        # a lone variable's touched set is its left_adj row as it stands:
        # each flip charges c checks, c inner decodes and one flip, and
        # leaves the state set-up would build from the flipped word, with
        # its counts patched when kept and counted afresh after a drop
        code, params, graph = big_code, big_params, big_code.graph
        c = graph.c
        rng = random.Random(33)
        x = BitVector.from_indices(code.n, rng.sample(range(code.n), code.n // graph.d))
        st = tf.DecodeState(code, params, x)
        word = bytes(st.x)
        u, t = min(st.targets.items())
        away = min(set(graph.right_adj[u]) - {t})  # next to u, whose vote is t's
        voted = rng.choice(sorted(st.targets.values()))
        wide = sorted({graph.right_adj[u][0] for u in st.targets})

        def flip(vs, kept):
            counts = st._counts
            assert (counts is not None) == kept
            ops = dataclasses.replace(st.ops)
            assert st.apply_flips(vs) == list(vs)
            assert st.ops == dataclasses.replace(ops, checks=ops.checks + c, flips=ops.flips + 1)
            assert st.ops.inner_decodes - ops.inner_decodes == c
            assert st._counts is counts  # patched in place, or still dropped
            ref = reference_setup(code, params, st.x_vector())
            assert st._syn == ref._syn
            assert st.unsat == ref.unsat
            assert st.targets == ref.targets
            assert st.votes == ref.votes
            assert st.buckets == ref.buckets
            assert st._counts == Counter(st.targets.values())

        for v in (away, voted, rng.randrange(code.n)):
            st.buckets
            flip([v], kept=True)
            st.apply_flips(wide)  # drops the counts
            st.apply_flips(wide)
            flip({v}, kept=False)
            assert bytes(st.x) == word
        for empty in ([], set(), ()):
            ops = dataclasses.replace(st.ops)
            assert st.apply_flips(empty) == []
            assert st.ops == ops
        assert bytes(st.x) == word

    def test_kept_counts_are_a_plain_dict(self, big_code, big_params):
        # the patch loops index the counts, which the interpreter runs
        # faster on a dict than on a subclass such as Counter
        graph = big_code.graph
        x = corrupt(BitVector.zeros(big_code.n), big_code.n // graph.d, seed=34)
        st = tf.DecodeState(big_code, big_params, x)
        st.buckets
        counts = st._counts
        assert type(counts) is dict  # counted after set-up
        st.apply_flips([min(st.targets.values())])
        assert st._counts is counts and type(counts) is dict  # patched
        st.apply_flips(sorted({graph.right_adj[u][0] for u in st.targets}))
        assert st._counts is None  # dropped
        st.buckets
        assert type(st._counts) is dict  # counted again
        assert st._counts == Counter(st.targets.values())


class TestEasyFlip:
    def test_flips_double_voted_vertex(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        flipped = st.apply_flips(st.buckets[2])
        assert flipped == [0]
        assert st.x_vector().to_text() == "000"
        assert len(st.unsat) == 0

    def test_empty_bucket_is_noop(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        assert st.apply_flips(st.buckets[1]) == []
        assert st.x_vector().to_text() == "100"

    def test_codeword_untouched(self, k32_code, k32_params):
        for m in (1, 2):
            st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("111"))
            assert st.apply_flips(st.buckets[m]) == []
            assert st.x_vector().to_text() == "111"

    def test_output_differs_exactly_on_bucket(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        for trial in range(3):
            x = corrupt(truth, 10, seed=50 + trial)
            st = tf.DecodeState(big_code, big_params, x)
            for m in range(1, big_code.graph.c + 1):
                before = st.x_vector()
                bucket = set(st.buckets[m])
                flipped = set(st.apply_flips(st.buckets[m]))
                assert flipped == bucket
                assert set((st.x_vector() ^ before).indices()) == bucket


def deep_flip(state: tf.DecodeState, seq) -> bool:
    """Flip bucket m for each m of seq with a shrink check after each step;
    the step of the scan oracle that hard_search is checked against.

    Returns False (pruned) as soon as the unsatisfied count exceeds the
    reference bound b_k after step k, True if the whole sequence ran; this
    is the pruning hard_search applies through its reach table. Steps beyond
    s0 continue the formula. The state keeps the branch-end word either
    way; callers rewind by flipping back where it differs from the input.
    """
    bounds = reference_bounds(state.params, len(seq))
    for k, m in enumerate(seq, 1):
        state.apply_flips(state.buckets[m])
        if len(state.unsat) > bounds[k]:
            return False
    return True


class TestDeepFlip:
    def test_good_branch_completes(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        assert deep_flip(st, [2]) is True
        assert st.x_vector().to_text() == "000"
        assert len(st.unsat) == 0

    def test_stalled_branch_pruned(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        assert deep_flip(st, [1]) is False

    def test_codeword_never_pruned(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("111"))
        assert deep_flip(st, [1, 2, 1, 2]) is True
        assert st.x_vector().to_text() == "111"

    def test_prunes_on_the_walks_bounds(self, k32_code, k32_params):
        # the recurrence's b_3 is exactly 2.0 here, while the formula's
        # (1-eps3)^3 * c*gamma*n rounds to just below it: deep_flip must use
        # the latter, as the reach table does
        params = dataclasses.replace(
            k32_params, s0=3, eps3=0.3, gamma=0.9718172983479106
        )
        assert reference_bounds(params)[3] < 2.0
        st = tf.DecodeState(k32_code, params, BitVector.from_text("100"))
        assert len(st.unsat) == 2 and not st.buckets[1]
        assert deep_flip(st, [1, 1]) is True
        assert deep_flip(st, [1, 1, 1]) is False
        # a step beyond s0 continues the formula, to 1.4
        assert deep_flip(st, [1, 1, 1, 1]) is False

    def test_restoration_exact(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        rng = random.Random(3)
        for trial in range(4):
            x = corrupt(truth, 12, seed=80 + trial)
            st = tf.DecodeState(big_code, big_params, x)
            seq = [rng.randint(1, big_code.graph.c) for _ in range(5)]
            deep_flip(st, seq)
            st.apply_flips((st.x_vector() ^ x).indices())
            assert st.x_vector() == x
            assert_state_consistent(st, big_code, big_params)


class TestHardSearch:
    def test_k32_accepts_second_branch(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        tf.hard_search(st)
        assert st.x_vector().to_text() == "000"

    def test_codeword_accepts_immediately(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("111"))
        tf.hard_search(st)
        assert st.x_vector().to_text() == "111"

    def test_accepted_branch_meets_reduction(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        for trial in range(5):
            x = corrupt(truth, 3, seed=200 + trial)
            st = tf.DecodeState(big_code, big_params, x)
            u0 = len(st.unsat)
            tf.hard_search(st)
            assert len(st.unsat) <= big_params.eps4 * u0

    def test_corruption_shrinks_within_radius(self, big_code, big_params):
        # decoding-radius inputs must lose a (1-eps3) fraction of corruptions
        truth = BitVector.zeros(big_code.n)
        radius = math.floor(big_params.gamma * big_code.n)
        for trial in range(10):
            x = corrupt(truth, radius, seed=300 + trial)
            st = tf.DecodeState(big_code, big_params, x)
            tf.hard_search(st)
            residual = (st.x_vector() ^ truth).weight()
            assert residual <= (1 - big_params.eps3) * radius

    def test_exhaustion_raises_and_restores(self, big_code, big_params):
        code = TannerCode(blocks_graph(1, 8), ext_hamming_inner())
        params = tf.derive_params(c=1, d=8, alpha=0.5, delta=1.0, d0=4, n=8)
        # (code, params, input, whether the walk flips before it exhausts):
        # two errors are beyond the inner radius, so no vote is sent; 20
        # errors are far beyond the radius, so the walk flips buckets and
        # must undo every one of them itself
        cases = [(code, params, BitVector.from_text("11000000"), False)]
        zero = BitVector.zeros(big_code.n)
        cases += [(big_code, big_params, corrupt(zero, 20, seed), True) for seed in range(5)]
        for code, params, x, walks in cases:
            st = tf.DecodeState(code, params, x)
            with pytest.raises(tf.NoAcceptableBranch):
                tf.hard_search(st)
            assert bool(st.ops.flips) == walks
            assert st.x_vector() == x
            assert_state_consistent(st, code, params)


def scan_commit(code, params, x: BitVector) -> BitVector | None:
    """Reference scan: the word after the first sequence of [c]^s0, in
    lexicographic order, that deep_flip runs through and that cuts |U| to
    eps4 * |U|; None when no sequence does."""
    state = tf.DecodeState(code, params, x)
    limit = params.eps4 * len(state.unsat)
    for seq in itertools.product(range(1, code.graph.c + 1), repeat=params.s0):
        if deep_flip(state, seq) and len(state.unsat) <= limit:
            return state.x_vector()
        state.apply_flips((state.x_vector() ^ x).indices())
    return None


def walk_commit(code, params, x: BitVector) -> BitVector | None:
    state = tf.DecodeState(code, params, x)
    try:
        tf.hard_search(state)
    except tf.NoAcceptableBranch:
        assert state.x_vector() == x
        return None
    return state.x_vector()


class TestScanEquivalence:
    """hard_search commits what the lexicographic scan of [c]^s0 commits."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"s0": 3},
            {"s0": 3, "gamma": 0.2, "eps4": 0.3},
            {"s0": 3, "eps3": 0.2, "gamma": 0.2},
            {"s0": 4, "eps3": 0.05, "gamma": 0.5, "eps4": 0.6},
            {"s0": 2, "eps3": 0.4, "gamma": 0.5, "eps4": 0.9},
        ],
    )
    def test_small_code(self, overrides):
        code, base = scan_small_code()
        params = dataclasses.replace(base, **overrides)
        rng = random.Random(repr(sorted(overrides.items())))
        outcomes = Counter()
        for _ in range(60):
            if rng.random() < 0.3:
                x = BitVector(code.n, rng.getrandbits(code.n))
            else:
                x = corrupt(BitVector.zeros(code.n), rng.randint(0, 12), rng.randrange(1 << 30))
            expected = scan_commit(code, params, x)
            assert walk_commit(code, params, x) == expected, x.to_text()
            outcomes[expected is None] += 1
        assert outcomes[True] and outcomes[False]  # both accept and exhaust occur

    def test_frozen_nodes_meet_the_final_bound(self):
        # on the (3,12) code a flip often leaves no senders with |U| still
        # high; such a node below s0 may accept only if its count meets
        # b_s0 as well as eps4 * |U| (here b_3 = 4.94 and eps4 = 0.9)
        code, base = wide_small_code()
        params = dataclasses.replace(base, s0=3, eps3=0.3, gamma=0.1, eps4=0.9)
        rng = random.Random("frozen")
        for _ in range(60):
            if rng.random() < 0.3:
                x = BitVector(code.n, rng.getrandbits(code.n))
            else:
                x = corrupt(BitVector.zeros(code.n), rng.randint(0, 12), rng.randrange(1 << 30))
            assert walk_commit(code, params, x) == scan_commit(code, params, x), x.to_text()

    @pytest.mark.parametrize("overrides", [{"s0": 3}, {"s0": 3, "eps3": 0.1}])
    def test_big_code(self, big_code, big_params, overrides):
        params = dataclasses.replace(big_params, **overrides)
        for weight, seed in ((1, 1), (2, 2), (3, 3), (5, 4), (8, 5), (30, 6)):
            x = corrupt(BitVector.zeros(big_code.n), weight, seed=seed)
            assert walk_commit(big_code, params, x) == scan_commit(big_code, params, x)


# The costliest hard_search calls on scan_small_code's code with loose bounds
# (eps3=2.4e-5, gamma=0.2, eps4=0.3), where the walk jumps down and up its
# chains far more than in PINNED_DECODES. Per s0, the inputs were 150 draws
# from random.Random(f"worst-{s0}"): 30% uniform words, the rest
# corrupt(zeros, randint(0, 12), randrange(2**30)). Each s0 pins the costliest
# call, which exhausts, and the costliest call that commits:
# (s0, input, committed word or None, (checks, inner_decodes, flips, nodes)),
# recorded with the frame-per-chain walk.
HARD_SEARCHES = [
    (4, "00100010100010110000000011000000", None, (1644, 1644, 750, 138)),
    (4, "10100100000000000000000011100001", "0" * 32, (528, 528, 221, 43)),
    (6, "01110100111111100110111000000110", None, (10210, 10210, 3950, 868)),
    (6, "00110001000000001110010000100110", "0" * 3 + "1" + "0" * 28,
     (3721, 3721, 1275, 347)),
    (8, "10101010110011000000011011011011", None, (77190, 77190, 28020, 6882)),
    (8, "00000000001010010100001000000000", "0" * 32, (43719, 43719, 13839, 4771)),
]


def hard_params(s0: int) -> tuple[TannerCode, tf.DecoderParams]:
    code, base = scan_small_code()
    return code, dataclasses.replace(base, s0=s0, eps3=2.4e-5, gamma=0.2, eps4=0.3)


@pytest.mark.parametrize("s0, word, committed, ops", HARD_SEARCHES)
def test_pinned_hard_searches(s0, word, committed, ops):
    code, params = hard_params(s0)
    state = tf.DecodeState(code, params, BitVector.from_text(word))
    try:
        tf.hard_search(state)
    except tf.NoAcceptableBranch:
        assert committed is None
        assert state.x_vector().to_text() == word
    else:
        assert state.x_vector().to_text() == committed
    c = state.ops
    assert (c.checks, c.inner_decodes, c.flips, c.nodes) == ops


@pytest.mark.parametrize(
    "s0, word, committed", [pin[:3] for pin in HARD_SEARCHES if pin[0] <= 6]
)
def test_hard_searches_match_scan(s0, word, committed):
    # the s0=8 scan costs about 16 times the s0=6 one, so it is left out
    code, params = hard_params(s0)
    expected = scan_commit(code, params, BitVector.from_text(word))
    assert (None if expected is None else expected.to_text()) == committed


def test_search_buckets_are_each_nodes_own(big_code, big_params, monkeypatch):
    # hard_search derives the buckets once per node it enters below s0 and
    # hands them to that node's chain, which flips them at every level: they
    # must be the buckets of the node's word, read off its syndromes
    derived = []
    buckets = tf.DecodeState.buckets

    def recorded(state):
        got = buckets.fget(state)
        derived.append((state.x_vector(), [set(b) for b in got]))
        return got

    monkeypatch.setattr(tf.DecodeState, "buckets", property(recorded))
    zero = BitVector.zeros(big_code.n)
    loose = dataclasses.replace(big_params, s0=3, eps3=0.1)
    cases = [(big_code, big_params, corrupt(zero, w, seed)) for w, seed in ((3, 3), (9, 1), (9, 2))]
    cases += [(big_code, loose, corrupt(zero, w, seed)) for w, seed in ((8, 5), (30, 6))]
    cases += [(*hard_params(s0), BitVector.from_text(word))
              for s0, word, _, _ in HARD_SEARCHES if s0 <= 6]
    nodes = 0
    for code, params, x in cases:
        derived.clear()
        state = tf.DecodeState(code, params, x)
        try:
            tf.hard_search(state)
        except tf.NoAcceptableBranch:
            pass
        assert derived
        nodes += len(derived)
        for word, got in derived:
            assert got == reference_setup(code, params, word).buckets, word.to_text()
    assert nodes > 300  # 333 of them in the four pinned searches


def test_no_op_chain_is_one_frame(big_code, big_params):
    # bucket 1 is empty, so the accepted sequence is 1^(s0-1) m: the walk
    # must reach it in a few nodes and one flip, not s0 frames
    x = corrupt(BitVector.zeros(big_code.n), 1, seed=1)
    st = tf.DecodeState(big_code, big_params, x)
    assert not st.buckets[1] and big_params.s0 > 10**4
    before = dataclasses.replace(st.ops)
    tf.hard_search(st)
    assert len(st.unsat) == 0
    assert st.ops.flips - before.flips == 1
    assert 1 <= st.ops.nodes - before.nodes <= 4


# Decodes on the n=2000 fixture: (weight, corrupt seed, outcome,
# unsat_per_round, (checks, inner_decodes, flips, nodes)). Outcomes and
# unsat_per_round were recorded with the level-by-level walk, the counters
# with the chain-collapsing walk. The radius is 3.
PINNED_DECODES = [
    (1, 1, "codeword", [12, 0], (3012, 3012, 1, 4)),
    (1, 2, "codeword", [12, 0], (3012, 3012, 1, 4)),
    (1, 3, "codeword", [12, 0], (3012, 3012, 1, 4)),
    (2, 1, "codeword", [24, 0], (3024, 3024, 2, 3)),
    (2, 2, "codeword", [24, 0], (3024, 3024, 2, 3)),
    (2, 3, "codeword", [24, 0], (3024, 3024, 2, 3)),
    (3, 1, "codeword", [36, 0], (3036, 3036, 3, 3)),
    (3, 2, "codeword", [36, 0], (3036, 3036, 3, 3)),
    (3, 3, "codeword", [36, 0], (3036, 3036, 3, 3)),
    (4, 1, "codeword", [48, 0], (3048, 3048, 4, 2)),
    (4, 2, "codeword", [48, 0], (3048, 3048, 4, 2)),
    (4, 3, "codeword", [48, 0], (3048, 3048, 4, 2)),
    (5, 1, "codeword", [60, 0], (3060, 3060, 5, 2)),
    (5, 2, "codeword", [60, 0], (3060, 3060, 5, 2)),
    (5, 3, "codeword", [60, 0], (3060, 3060, 5, 2)),
    (6, 1, "codeword", [71, 0], (3117, 3117, 10, 4)),
    (6, 2, "codeword", [72, 0], (3072, 3072, 6, 2)),
    (6, 3, "codeword", [72, 0], (3072, 3072, 6, 2)),
    (7, 1, "codeword", [82, 0], (3156, 3156, 13, 6)),
    (7, 2, "codeword", [83, 0], (3129, 3129, 11, 4)),
    (7, 3, "codeword", [84, 0], (3084, 3084, 7, 2)),
    (8, 1, "no_acceptable_branch", [93], (3190, 3190, 16, 1)),
    (8, 2, "codeword", [95, 0], (3141, 3141, 12, 4)),
    (8, 3, "codeword", [96, 0], (3096, 3096, 8, 2)),
    (9, 1, "no_acceptable_branch", [105], (3214, 3214, 18, 1)),
    (9, 2, "codeword", [106, 0], (3180, 3180, 15, 6)),
    (9, 3, "codeword", [106, 0], (3180, 3180, 15, 6)),
    (12, 1, "no_acceptable_branch", [140], (3284, 3284, 24, 1)),
    (12, 2, "no_acceptable_branch", [141], (3286, 3286, 24, 1)),
    (12, 3, "no_acceptable_branch", [141], (3288, 3288, 24, 1)),
]


def test_pinned_decodes(big_code, big_params):
    zero = BitVector.zeros(big_code.n)
    for weight, seed, outcome, unsat, ops in PINNED_DECODES:
        report = tf.DecodeReport()
        try:
            out = tf.main_decode(big_code, big_params, corrupt(zero, weight, seed=seed), report=report)
        except tf.NoAcceptableBranch:
            out = None
        assert (report.outcome, report.unsat_per_round) == (outcome, unsat), (weight, seed)
        c = report.ops
        assert (c.checks, c.inner_decodes, c.flips, c.nodes) == ops, (weight, seed)
        assert (out == zero) if outcome == "codeword" else out is None


# 55 errors on the seed-1 (12,8) graph at n=32000 with the [8,4,4] inner
# code, hill-climbed from random positions by moving one error next to
# another while the search's nodes did not fall: an input at the radius
# floor(gamma*n) = 55 whose search walks 7,389 nodes, where a random one
# walks about 5.
CLIMBED_32000 = [
    163, 179, 2246, 2773, 2778, 2945, 4279, 5063, 5119, 5215, 5916, 6179,
    6282, 6464, 7059, 7186, 7489, 7704, 8469, 8999, 11420, 11494, 11627,
    12328, 13192, 13350, 13597, 14627, 14914, 15889, 16199, 16852, 17081,
    18161, 18183, 18493, 19247, 19790, 20395, 21223, 21526, 23422, 24755,
    25185, 25797, 27102, 27125, 27801, 28419, 28508, 29030, 29903, 30655,
    30781, 31099,
]


def test_pinned_climbed_decode():
    n = 32000
    code = TannerCode(tf.gen_random_biregular(12, 8, n, seed=1), ext_hamming_inner())
    params = tf.derive_params(12, 8, 0.02, 0.8, 4, n)
    assert len(CLIMBED_32000) == math.floor(params.gamma * n)
    report = tf.DecodeReport()
    out = tf.main_decode(code, params, BitVector.from_indices(n, CLIMBED_32000), report=report)
    assert out == BitVector.zeros(n)
    assert report.to_dict() == {
        "input_weight": 55,
        "rounds_used": 4,
        "unsat_per_round": [604, 355, 213, 33, 0],
        "checks": 225675,
        "inner_decodes": 225675,
        "flips": 14809,
        "nodes": 7389,
        "outcome": "codeword",
    }


# 13 errors on the seed-1 (12,8) graph at n=8000, climbed the same way from
# random.Random(11)'s sample with a budget of 100,000 decodes: its search
# walks 37 nodes over 3 rounds, where random inputs walk at most 7, and its
# flips re-aim a constraint's vote through right_adj 49 times, against about
# once for a random input.
CLIMBED_8000 = [106, 1158, 1760, 2025, 2766, 4234, 4919, 5070, 5076, 6702, 7034, 7513, 7765]


def test_pinned_climbed_decode_8000():
    n = 8000
    code = TannerCode(tf.gen_random_biregular(12, 8, n, seed=1), ext_hamming_inner())
    params = tf.derive_params(12, 8, 0.02, 0.8, 4, n)
    assert len(CLIMBED_8000) == math.floor(params.gamma * n)
    report = tf.DecodeReport()
    out = tf.main_decode(code, params, BitVector.from_indices(n, CLIMBED_8000), report=report)
    assert out == BitVector.zeros(n)
    assert report.to_dict() == {
        "input_weight": 13,
        "rounds_used": 3,
        "unsat_per_round": [143, 89, 24, 0],
        "checks": 12554,
        "inner_decodes": 12554,
        "flips": 47,
        "nodes": 37,
        "outcome": "codeword",
    }


class TestMainDecode:
    def test_corrects_single_error(self, k32_code, k32_params):
        out = tf.main_decode(k32_code, k32_params, BitVector.from_text("100"))
        assert out.to_text() == "000"

    def test_codeword_fixed(self, k32_code, k32_params):
        out = tf.main_decode(k32_code, k32_params, BitVector.from_text("111"))
        assert out.to_text() == "111"

    def test_decodes_toward_nearest(self, k32_code, k32_params):
        out = tf.main_decode(k32_code, k32_params, BitVector.from_text("011"))
        assert out.to_text() == "111"

    def test_all_single_errors(self, k32_code, k32_params):
        for y in ("000", "111"):
            truth = BitVector.from_text(y)
            for i in range(3):
                x = truth ^ BitVector.from_indices(3, [i])
                assert tf.main_decode(k32_code, k32_params, x) == truth

    def test_failure_raises(self):
        code = TannerCode(blocks_graph(1, 8), ext_hamming_inner())
        params = tf.derive_params(c=1, d=8, alpha=0.5, delta=1.0, d0=4, n=8)
        with pytest.raises(tf.DecodeFailure):
            tf.main_decode(code, params, BitVector.from_text("11000000"))

    def test_no_acceptable_branch_propagates(self):
        code = TannerCode(blocks_graph(6, 8), ext_hamming_inner())
        params = tf.derive_params(c=1, d=8, alpha=0.5, delta=1.0, d0=4, n=48)
        assert params.ell >= 1
        x = BitVector.from_indices(48, [0, 1])  # two errors in one block
        with pytest.raises(tf.NoAcceptableBranch):
            tf.main_decode(code, params, x)

    def test_final_pass_handles_scattered_residue(self):
        # one error per block stays below the inner radius everywhere, so the
        # closing pass alone finishes the job even with zero search rounds
        code = TannerCode(blocks_graph(4, 8), ext_hamming_inner())
        params = tf.derive_params(c=1, d=8, alpha=0.25, delta=1.0, d0=4, n=32)
        params = dataclasses.replace(params, ell=0)
        x = BitVector.from_indices(32, [0, 9, 17, 30])
        report = tf.DecodeReport()
        assert tf.main_decode(code, params, x, report=report) == BitVector.zeros(32)
        assert report.rounds_used == 0
        assert report.unsat_per_round == [4]
        assert report.outcome == "codeword"
        # 4 set-up checks, then per block one closing read and one
        # re-examination after its flip
        ops = report.ops
        assert (ops.checks, ops.inner_decodes, ops.flips, ops.nodes) == (12, 12, 4, 0)

    def test_report_fields(self, k32_code, k32_params):
        report = tf.DecodeReport()
        tf.main_decode(k32_code, k32_params, BitVector.from_text("100"), report=report)
        assert report.outcome == "codeword"
        assert report.input_weight == 1
        assert report.unsat_per_round[0] == 2
        assert report.ops.total() > 0
        payload = json.loads(report.to_json_line())
        assert payload["outcome"] == "codeword"
        assert payload["inner_decodes"] == report.ops.inner_decodes
        assert payload["nodes"] == report.ops.nodes
        # ell is 0, so the closing pass alone decodes: it reads constraint 0
        # (one check, one inner decode), flips vertex 0 and re-examines both
        # constraints, on top of the 2 checks of the set-up pass
        ops = report.ops
        assert (ops.checks, ops.inner_decodes, ops.flips, ops.nodes) == (5, 5, 1, 0)

    def test_decode_at_radius_big(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        radius = math.floor(big_params.gamma * big_code.n)
        for trial in range(10):
            x = corrupt(truth, radius, seed=400 + trial)
            assert tf.main_decode(big_code, big_params, x) == truth


class TestTruthTrace:
    def test_k32_example(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        trace = tf.compute_truth_trace(st, BitVector.from_text("000"))
        assert trace.corrupt == {0}
        assert trace.correct_senders == {0, 1}
        assert trace.confused_senders == set()
        assert trace.bucket_sizes[2] == 1
        assert trace.corrupt_fraction(2) == 1.0
        assert trace.trusted_vote_fraction(2) == 1.0

    def test_clean_word_trivial(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("111"))
        trace = tf.compute_truth_trace(st, BitVector.from_text("111"))
        assert not trace.corrupt and not trace.senders
        assert all(s == 0 for s in trace.bucket_sizes)

    def test_requires_codeword(self, k32_code, k32_params):
        st = tf.DecodeState(k32_code, k32_params, BitVector.from_text("100"))
        with pytest.raises(ValueError):
            tf.compute_truth_trace(st, BitVector.from_text("110"))

    def test_vote_count_identity(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        c = big_code.graph.c
        for trial in range(5):
            x = corrupt(truth, 15, seed=500 + trial)
            st = tf.DecodeState(big_code, big_params, x)
            trace = tf.compute_truth_trace(st, truth)
            total_votes = sum(m * trace.bucket_sizes[m] for m in range(1, c + 1))
            assert total_votes == len(trace.senders)

    def test_correct_senders_are_lightly_hit_constraints(self, big_code, big_params):
        # a constraint votes correctly exactly when it sees 1..t corruptions
        truth = BitVector.zeros(big_code.n)
        t = big_params.t
        for trial in range(4):
            x = corrupt(truth, 20, seed=550 + trial)
            corrupted = set(x.indices())
            st = tf.DecodeState(big_code, big_params, x)
            trace = tf.compute_truth_trace(st, truth)
            lightly_hit = {
                u
                for u, nb in enumerate(big_code.graph.right_adj)
                if 1 <= sum(v in corrupted for v in nb) <= t
            }
            assert trace.correct_senders == lightly_hit

    def test_post_flip_count_matches_reality(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        x = corrupt(truth, 12, seed=600)
        for m in range(1, big_code.graph.c + 1):
            st = tf.DecodeState(big_code, big_params, x)
            trace = tf.compute_truth_trace(st, truth)
            predicted = trace.post_flip_corrupt_count(m)
            st.apply_flips(st.buckets[m])
            assert (st.x_vector() ^ truth).weight() == predicted


def test_safety_bound_for_arbitrary_flips(big_code, big_params):
    """Any single voting round can grow the corruption only by the bounded
    factor 1 + c/(d0 - t)."""
    truth = BitVector.zeros(big_code.n)
    cap = 1 + big_code.graph.c / (big_params.d0 - big_params.t)
    rng = random.Random(11)
    for trial in range(5):
        weight = rng.randint(1, 60)
        x = corrupt(truth, weight, seed=700 + trial)
        st = tf.DecodeState(big_code, big_params, x)
        for m in range(1, big_code.graph.c + 1):
            st2 = tf.DecodeState(big_code, big_params, x)
            st2.apply_flips(st2.buckets[m])
            after = (st2.x_vector() ^ truth).weight()
            assert after <= cap * weight


class TestClosingCheck:
    """main_decode closes with TannerCode.failing_constraints on the output
    word, which reads only the constraints next to the output's support."""

    @staticmethod
    def check(code, params, received: BitVector, output: BitVector) -> bool:
        # bookkeeping that reports no failing constraint sends the decode
        # straight to the closing check with the word `output`
        state = tf.DecodeState(code, params, received)
        state.x[:] = output.to_bytes01()
        state._syn.clear()  # the source of unsat
        try:
            assert tf.main_decode(code, params, state) == output
        except tf.DecodeFailure:
            return False
        return True

    def test_equals_global_h(self, big_code, big_params, dim3_code):
        rng = random.Random(8)
        verdicts = Counter()
        dim3, dim3_params = dim3_code
        for code, params, codewords in (
            (big_code, big_params, [BitVector.zeros(big_code.n)]),
            (dim3, dim3_params, list(dim3.codewords())),
        ):
            n = code.n
            checks = code.global_h.row_bits
            for _ in range(40):
                truth = rng.choice(codewords)
                received = (
                    BitVector(n, rng.getrandbits(n))
                    if rng.random() < 0.2
                    else corrupt(truth, rng.randint(0, 12), rng.randrange(1 << 30))
                )
                moved = rng.sample(range(n), rng.randint(0, 6))
                outputs = [
                    truth,
                    truth ^ BitVector.from_indices(n, [rng.randrange(n)]),
                    received ^ BitVector.from_indices(n, moved),
                ]
                for output in outputs:
                    expected = not any((row & output.bits).bit_count() & 1 for row in checks)
                    assert self.check(code, params, received, output) == expected
                    verdicts[expected] += 1
        assert verdicts[True] >= 80 and verdicts[False] >= 80

    @pytest.mark.parametrize("mutation", ["clear_unsat", "write_x"])
    def test_ignores_corrupted_bookkeeping(
        self, k32_code, k32_params, big_code, big_params, mutation
    ):
        # either way the bookkeeping says no constraint fails, so the decode
        # goes straight to the closing check with a word that is no codeword
        for code, params in ((k32_code, k32_params), (big_code, big_params)):
            zero = BitVector.zeros(code.n)
            if mutation == "clear_unsat":
                state = tf.DecodeState(code, params, corrupt(zero, 1, seed=81))
                state._syn.clear()  # the source of unsat
            else:
                state = tf.DecodeState(code, params, zero)
                state.x[0] ^= 1
            report = tf.DecodeReport()
            with pytest.raises(tf.DecodeFailure) as exc:
                tf.main_decode(code, params, state, report=report)
            assert exc.value.outcome == report.outcome == "residual_unsat"
            assert not code.is_codeword(state.x_vector())

    def test_reads_the_constraints_next_to_the_output(
        self, big_code, big_params, dim3_code, monkeypatch
    ):
        # the decoders read no restriction, so every read is the closing check's
        reads, calls = [], []
        read, failing = TannerCode.read_restriction, TannerCode.failing_constraints

        def counted_read(code, word, u):
            reads.append(u)
            return read(code, word, u)

        def counted_failing(code, word):
            calls.append(word)
            return failing(code, word)

        monkeypatch.setattr(TannerCode, "read_restriction", counted_read)
        monkeypatch.setattr(TannerCode, "failing_constraints", counted_failing)

        def closing_reads(code, output: BitVector) -> int:
            """The reads of the one closing check of the decode just run,
            which must be those of the constraints next to its output."""
            assert calls == [output.to_bytes01()]
            near = {u for v in output.indices() for u in code.graph.left_adj[v]}
            assert sorted(reads) == sorted(near)
            count = len(reads)
            reads.clear()
            calls.clear()
            return count

        zero = BitVector.zeros(big_code.n)
        for weight, seed in ((1, 1), (2, 2), (3, 3), (3, 4)):
            x = corrupt(zero, weight, seed)
            assert tf.main_decode(big_code, big_params, x) == zero
            assert closing_reads(big_code, zero) == 0
        for weight, seed in ((20, 5), (60, 6)):
            x = corrupt(zero, weight, seed)
            cfg = tf.RandDecodeConfig.for_params(big_params, seed=seed)
            assert tf.randomized_decode(big_code, big_params, cfg, x) == zero
            assert closing_reads(big_code, zero) == 0
        dim3, dim3_params = dim3_code
        nonzero = [cw for cw in dim3.codewords() if cw.bits]
        assert len(nonzero) == 7
        for truth in nonzero:
            x = corrupt(truth, 2, seed=truth.weight())
            assert tf.main_decode(dim3, dim3_params, x) == truth
            assert 0 < closing_reads(dim3, truth) <= dim3.graph.c * truth.weight()

    def test_no_whole_word_pass_per_decode(self, big_code, big_params, monkeypatch):
        def refused(*args):
            raise AssertionError("decoders must not make a whole-word pass")

        reads, left_reads, right_reads = [], [], []
        read = TannerCode.read_restriction
        graph = big_code.graph
        left_adj = graph.left_adj

        def counted(code, word, u):
            reads.append(u)
            return read(code, word, u)

        monkeypatch.setattr(TannerCode, "is_codeword", refused)
        # a sparse word is converted per 1-bit: set-up reads its support, and
        # the output is packed per 1, not through the per-coordinate digits
        monkeypatch.setattr(BitVector, "to_bytes01", refused)
        monkeypatch.setattr(gf2, "_pack_digits", refused)
        monkeypatch.setattr(TannerCode, "read_restriction", counted)
        monkeypatch.setattr(graph, "left_adj", Recorded(left_adj, left_reads))
        monkeypatch.setattr(graph, "right_adj", Recorded(graph.right_adj, right_reads))
        zero = BitVector.zeros(big_code.n)
        c = graph.c
        for weight, seed in ((0, 1), (1, 2), (3, 9), (30, 9), (300, 4)):
            x = corrupt(zero, weight, seed)
            support = {u for v in x.indices() for u in left_adj[v]}
            reads.clear()
            left_reads.clear()
            right_reads.clear()
            state = tf.DecodeState(big_code, big_params, x)
            assert reads == []
            # set-up walks the edges of each 1-coordinate once, so it
            # reaches exactly the constraints next to the support
            assert sorted(left_reads) == x.indices()
            assert {u for v in left_reads for u in left_adj[v]} == support
            # and places each vote in the same pass: a constraint reads its
            # neighborhood only when its vote is not for the variable just
            # flipped, which takes a second error next to it, so every read
            # lies next to the support and a 1-error word reads none
            assert set(right_reads) <= support and len(right_reads) <= c * weight
            if weight == 1:
                assert right_reads == []
            elif weight == 300:  # errors sharing a constraint reach the read
                assert right_reads
            # the vote views read the kept targets and no neighborhood
            right_reads.clear()
            assert state.targets.keys() <= state.unsat
            assert sum(state.votes.values()) == len(state.targets)
            assert sum(map(len, state.buckets)) == len(state.votes)
            assert right_reads == []
            assert state.unsat <= support
            assert state.ops.checks == state.ops.inner_decodes == graph.n_right
        # a decode to zero reads no restriction, the closing check included
        reads.clear()
        assert tf.main_decode(big_code, big_params, corrupt(zero, 3, seed=9)) == zero
        assert reads == []
        cfg = tf.RandDecodeConfig.for_params(big_params, seed=9)
        x = corrupt(zero, 30, seed=9)
        assert tf.randomized_decode(big_code, big_params, cfg, x) == zero
