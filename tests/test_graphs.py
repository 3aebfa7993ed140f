from __future__ import annotations

import gc
import hashlib
import math
import random
import tracemalloc

import pytest

from conftest import scan_small_code, wide_small_code
from tannerflip import graphs
from tannerflip.graphs import (
    BipartiteGraph,
    build_lowerbound_graph,
    count_bounded_neighbors,
    expected_neighbor_lower_bound,
    gen_random_biregular,
    sample_expansion,
    verify_counting_bound,
    verify_expansion,
)


@pytest.fixture(scope="module")
def k32() -> BipartiteGraph:
    return gen_random_biregular(2, 3, 3, seed=0)


class TestGeneration:
    def test_k32_forced(self, k32):
        # only one simple (2,3)-biregular graph exists on 3+2 vertices
        assert k32.left_adj == ((0, 1), (0, 1), (0, 1))
        assert k32.right_adj == ((0, 1, 2), (0, 1, 2))

    def test_invariants_hold(self):
        g = gen_random_biregular(3, 6, 12, seed=7)
        assert (g.n_left, g.n_right) == (12, 6)
        for nb in g.left_adj:
            assert len(nb) == 3 and len(set(nb)) == 3 and list(nb) == sorted(nb)
        for nb in g.right_adj:
            assert len(nb) == 6

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            gen_random_biregular(2, 3, 4, seed=0)

    def test_degree_feasibility_error(self):
        with pytest.raises(ValueError):
            gen_random_biregular(4, 8, 4, seed=0)  # c exceeds right side

    def test_deterministic_in_seed(self):
        a = gen_random_biregular(3, 4, 16, seed=5)
        b = gen_random_biregular(3, 4, 16, seed=5)
        c = gen_random_biregular(3, 4, 16, seed=6)
        assert a.left_adj == b.left_adj
        assert a.left_adj != c.left_adj

    # sha256 of to_text(): generation must make the same rng calls and give
    # the same graph for every seed, however it is written
    PINNED_GRAPHS = {
        (12, 8, 2000, 1): "da20365bad5f9db6a2d6c2f379090830048daf2db260666b005e3ae2278f2225",
        (12, 8, 2000, 2): "c87d90565956a31d72532d78e1ee81f909d21cb6eddb0d495ef4c77d906f75df",
        (12, 8, 8000, 3): "5b57b5d4ddc64d616b307fff162b35f41dffcfbcf971fbef7a25e9ff29051763",
        (12, 8, 32000, 1): "3313c2aeb5be32e08d3c50213cb5923cd65af0515949b51560bb00f0f4a00cfb",
        (2, 8, 64, 3): "b58d1951803cbabfa75a29bbdc12b56ad121c8871d62bd2e65457005439bed22",
        (4, 8, 32, 1): "cc73cb52b6c98fe52909bda3136bf83e00257b225bbcc74dff61da158210fb97",
        (3, 6, 60, 7): "1b11e4ce0df62649fc7978001d9594b222f5c20eb6379d73500d69186d19c20b",
    }

    @pytest.mark.parametrize("args", list(PINNED_GRAPHS))
    def test_pinned_graphs(self, args):
        text = gen_random_biregular(*args).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_GRAPHS[args]

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffle_matches_random_shuffle(self, seed):
        # the same permutation and the same draws, so the generator left
        # behind is in the same state, at every power-of-two edge
        edges = {e for k in range(15) for e in (2**k - 1, 2**k, 2**k + 1)}
        for length in sorted(set(range(71)) | edges | {24000}):
            expected, ours = list(range(length)), list(range(length))
            ref_rng, rng = random.Random(seed), random.Random(seed)
            ref_rng.shuffle(expected)
            graphs._shuffle(ours, rng)
            assert ours == expected, length
            assert rng.getstate() == ref_rng.getstate(), length

    def test_collector_paused_during_build_and_restored(self, monkeypatch):
        seen = []
        shuffle = graphs._shuffle

        def spy(x, rng):
            seen.append(gc.isenabled())
            shuffle(x, rng)

        monkeypatch.setattr(graphs, "_shuffle", spy)
        assert gc.isenabled()
        gen_random_biregular(12, 8, 2000, seed=1)
        BipartiteGraph.from_text("2 3 3 2\n0 1\n0 1\n0 1\n")
        assert seen == [False] and gc.isenabled()

    def test_collector_restored_after_repair_cap(self, monkeypatch):
        # seed 1's shuffle leaves 9 vertices with a repeated edge, so the
        # repair runs and, with no attempts allowed, raises
        rng = random.Random(1)
        stubs = [u for u in range(16) for _ in range(8)]
        graphs._shuffle(stubs, rng)
        assert sum(len(set(stubs[i:i + 4])) < 4 for i in range(0, 128, 4)) == 9
        monkeypatch.setattr(graphs, "SWAP_CAP_FACTOR", 0)
        with pytest.raises(ValueError, match="attempt cap"):
            gen_random_biregular(4, 8, 32, seed=1)
        assert gc.isenabled()
        with pytest.raises(ValueError, match="ascending"):
            BipartiteGraph.from_text("2 3 3 2\n1 0\n0 1\n0 1\n")
        assert gc.isenabled()

    def test_collector_the_caller_disabled_stays_disabled(self):
        gc.disable()
        try:
            gen_random_biregular(4, 8, 32, seed=3)
            BipartiteGraph.from_text("2 3 3 2\n0 1\n0 1\n0 1\n")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_mutual_consistency(self):
        g = gen_random_biregular(4, 8, 32, seed=3)
        for v, nb in enumerate(g.left_adj):
            for u in nb:
                assert v in g.right_adj[u]


# Every graph the tests decode on, plus one with d > 256, whose slots need
# more than a byte each.
SLOT_GRAPHS = {
    "k32": lambda request: request.getfixturevalue("k32_code").graph,
    "big_12_8_n2000": lambda request: request.getfixturevalue("big_code").graph,
    "expander_12_8_n30": lambda request: request.getfixturevalue("small_expander_code")[0].graph,
    "dim3_2_8_n64": lambda request: request.getfixturevalue("dim3_code")[0].graph,
    "scan_4_8_n32": lambda request: scan_small_code()[0].graph,
    "wide_3_12_n48": lambda request: wide_small_code()[0].graph,
    "lowerbound_4_2_20": lambda request: build_lowerbound_graph(4, 2, 20, seed=0)[0],
    "blocks_1_8_n48": lambda request: BipartiteGraph(1, 8, [[v // 8] for v in range(48)]),
    "wide_1_300_n300": lambda request: gen_random_biregular(1, 300, 300, seed=0),
}


@pytest.mark.parametrize("name", list(SLOT_GRAPHS))
def test_slots_record_each_edges_position(request, name):
    # slots[v][k] is v's position in right_adj[u], u = left_adj[v][k]
    g = SLOT_GRAPHS[name](request)
    assert len(g.slots) == g.n_left
    expected = [[g.right_adj[u].index(v) for u in nb] for v, nb in enumerate(g.left_adj)]
    assert [list(row) for row in g.slots] == expected
    # bytes rows while d <= 256; tuple rows above that hold slots up to d - 1
    row_type = bytes if g.d <= 256 else tuple
    assert {type(row) for row in g.slots} == {row_type}
    assert max(map(max, g.slots)) == g.d - 1
    assert BipartiteGraph.from_text(g.to_text()).slots == g.slots


@pytest.mark.parametrize(
    "c, d, adj",
    [
        (1, 2, [[0], [-1]]),
        (1, 2, [[0], [1]]),
        (3, 3, [[-1, 0, 1], [0, 1, 2], [0, 1, 2]]),
        (3, 3, [[0, 1, 3], [0, 1, 2], [0, 1, 2]]),
    ],
)
def test_right_index_out_of_range(c, d, adj):
    # n_right = n_left * c / d is 1 and then 3: a negative index or one of
    # at least n_right is refused, wherever it sits in the list
    with pytest.raises(ValueError, match="out of range"):
        BipartiteGraph(c, d, adj)


class TestVerifyExpansion:
    def test_k32_singletons(self, k32):
        report = verify_expansion(k32, 1 / 3, 1.0)
        assert report.verified and report.witness is None
        assert report.subsets_checked == 3

    def test_k32_pairs_fail(self, k32):
        report = verify_expansion(k32, 2 / 3, 1.0)
        assert not report.verified
        assert report.witness == (0, 1)

    def test_vacuous_alpha(self, k32):
        report = verify_expansion(k32, 0.1, 1.0)  # floor(0.3) = 0 subsets
        assert report.verified and report.subsets_checked == 0

    def test_budget_exceeded(self):
        g = gen_random_biregular(3, 4, 40, seed=0)
        with pytest.raises(ValueError):
            verify_expansion(g, 1.0, 0.5)

    def test_sampled_mode_never_verifies(self, k32):
        report = sample_expansion(k32, 2 / 3, 1.0, samples=200, seed=1)
        assert not report.verified
        assert report.witness is not None  # pairs violate and get sampled
        assert report.confidence is not None


class TestCountingBounds:
    def test_single_vertex(self, k32):
        counts = count_bounded_neighbors(k32, {0}, 1)
        assert counts.at_most_t == 2
        assert counts.histogram[1] == 2

    def test_empty_set(self, k32):
        counts = count_bounded_neighbors(k32, set(), 1)
        assert counts.at_most_t == 0 and counts.above_t == 0
        assert counts.histogram[0] == k32.n_right

    def test_pair_all_above(self, k32):
        counts = count_bounded_neighbors(k32, {0, 1}, 1)
        assert counts.at_most_t == 0
        assert counts.above_t == 2

    def test_bound_equality_case(self, k32):
        # |N_<=1({0})| = 2 and the bound is ((1*2-1)/1)*2*1 = 2
        assert verify_counting_bound(k32, {0}, 1, 1.0)

    def test_low_delta_trivial(self, k32):
        assert verify_counting_bound(k32, {0, 1}, 1, 0.5)  # bound is 0

    def test_range_check(self, k32):
        with pytest.raises(ValueError):
            count_bounded_neighbors(k32, {0}, 0)


def test_counting_bound_follows_from_expansion():
    """On a verified expander the degree-counting bound holds for every
    in-range subset and every threshold."""
    from itertools import combinations

    g = gen_random_biregular(12, 8, 30, seed=12)
    alpha, delta = 2 / 30, 0.75
    assert verify_expansion(g, alpha, delta).verified
    s_max = math.floor(alpha * g.n_left)
    for size in range(1, s_max + 1):
        for subset in combinations(range(g.n_left), size):
            for t in range(1, g.d + 1):
                assert verify_counting_bound(g, subset, t, delta)


class TestExpectedNeighborBound:
    def test_alpha_one(self):
        # at alpha=1 the expression collapses to c/d - 2*sqrt(c)
        value = expected_neighbor_lower_bound(2, 3, 1.0)
        assert value == pytest.approx(2 / 3 - 2 * math.sqrt(2))

    def test_hand_formula(self):
        c, d, alpha = 2, 3, 1 / 3
        expected = (c / d) * (1 - (1 - alpha) ** d) - 2 * alpha * math.sqrt(
            c * (1 + math.log(3))
        )
        assert expected_neighbor_lower_bound(c, d, alpha) == pytest.approx(expected)

    def test_formula_12_8(self):
        value = expected_neighbor_lower_bound(12, 8, 0.05)
        by_hand = (12 / 8) * (1 - 0.95**8) - 0.1 * math.sqrt(12 * math.log(math.e / 0.05))
        assert value == pytest.approx(by_hand)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            expected_neighbor_lower_bound(2, 3, 0.0)
        with pytest.raises(ValueError):
            expected_neighbor_lower_bound(2, 3, 1.5)


class TestLowerboundGraph:
    def test_construction_4_2_20(self):
        g, c, alpha = build_lowerbound_graph(4, 2, 20, seed=0)
        assert c == 3
        d, d0, n = 4, 2, 20
        n1 = n - d0
        r1 = n1 * (c - 1) // d
        tail = set(range(n1, n))
        # tail-covering constraints follow the block-index formula
        for i in range(c):
            u = r1 + i
            nb = set(g.right_adj[u])
            assert nb & tail == tail
            expected_block = set(range(i * (d - d0), (i + 1) * (d - d0)))
            assert nb - tail == expected_block
        # remaining constraints are disjoint d-blocks of the main part
        rest = set()
        for u in range(r1 + c, g.n_right):
            nb = set(g.right_adj[u])
            assert len(nb) == d and not nb & tail
            assert not nb & rest
            rest |= nb
        assert rest == set(range((d - d0) * c, n1))

    def test_biregular_output(self):
        g, c, _ = build_lowerbound_graph(6, 2, 20, seed=0)
        assert g.c == c and g.d == 6
        for nb in g.left_adj:
            assert len(nb) == c

    def test_tail_support_pattern(self):
        # the weight-d0 tail vector meets each constraint in all-or-nothing
        d, d0, n = 4, 2, 20
        g, c, _ = build_lowerbound_graph(d, d0, n, seed=0)
        n1 = n - d0
        r1 = n1 * (c - 1) // d
        tail = set(range(n1, n))
        for u in range(g.n_right):
            hit = set(g.right_adj[u]) & tail
            if r1 <= u < r1 + c:
                assert len(hit) == d0
            else:
                assert not hit

    def test_claimed_expansion_verified(self):
        g, _, alpha = build_lowerbound_graph(4, 2, 20, seed=0)
        assert verify_expansion(g, 0.9 * alpha, 1 / 2).verified

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_lowerbound_graph(4, 2, 10, seed=0)  # n < 10*d0
        with pytest.raises(ValueError):
            build_lowerbound_graph(2, 2, 40, seed=0)  # d must exceed d0


class TestTextFormat:
    def test_round_trip(self):
        g = gen_random_biregular(3, 4, 16, seed=5)
        parsed = BipartiteGraph.from_text(g.to_text())
        assert parsed.left_adj == g.left_adj
        assert parsed.right_adj == g.right_adj

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_text("2 3 3 2\n0 1\n0 1\n0 0\n")

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_text("2 3 3 2\n1 0\n0 1\n0 1\n")

    def test_rejects_bad_header_count(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_text("2 3 3 5\n0 1\n0 1\n0 1\n")

    @pytest.mark.parametrize("text", ["1 0 1 0\n0\n", "0 1 0 0\n", "0 0 0 0\n"])
    def test_rejects_zero_degree(self, text):
        with pytest.raises(ValueError, match="degrees must be at least 1"):
            BipartiteGraph.from_text(text)

    def test_header_degree_does_not_size_allocation(self):
        # c = 10^5 promises 10^5 constraints, but the adjacency line has one
        # entry: that is rejected before anything of the promised size exists
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="distinct neighbors"):
                BipartiteGraph.from_text("100000 1 1 100000\n0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
