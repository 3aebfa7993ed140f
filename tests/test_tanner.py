from __future__ import annotations

import random

import pytest

import tannerflip as tf
from tannerflip.gf2 import BitVector, mat_vec_mul
from tannerflip.graphs import BipartiteGraph, build_lowerbound_graph, gen_random_biregular
from tannerflip.inner import parity_check_code, repetition_code
from tannerflip.tanner import TannerCode, corrupt, load_bundle, write_bundle

from conftest import (
    column_scan_kernel,
    column_scan_rref,
    ext_hamming_inner,
    wide_inner_12_6_4,
)


def blocks_graph(blocks: int, d: int) -> BipartiteGraph:
    """Disjoint d-blocks: left vertex v belongs to constraint v // d."""
    return BipartiteGraph(1, d, [[v // d] for v in range(blocks * d)])


@pytest.fixture(scope="module")
def k32_rep3() -> TannerCode:
    return TannerCode(gen_random_biregular(2, 3, 3, seed=0), repetition_code(3))


@pytest.fixture(scope="module")
def dim_zero_code() -> TannerCode:
    # every constraint of this graph is a distinct 3-subset of the 4 left
    # vertices, and the odd-length parity code lacks the all-ones word,
    # so the only codeword is zero
    return TannerCode(gen_random_biregular(3, 3, 4, seed=0), parity_check_code(3))


class TestConstruction:
    def test_k32_rep3_dimension(self, k32_rep3):
        assert k32_rep3.dim == 1
        assert sorted(cw.bits for cw in k32_rep3.codewords()) == [0, 0b111]

    def test_global_h_shape(self, k32_rep3):
        h = k32_rep3.global_h
        assert h.rows == (3 - 1) * 2 and h.cols == 3

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            TannerCode(gen_random_biregular(2, 4, 4, seed=0), repetition_code(3))


class TestMembership:
    def test_codewords(self, k32_rep3):
        assert k32_rep3.is_codeword(BitVector.from_text("000"))
        assert k32_rep3.is_codeword(BitVector.from_text("111"))
        assert not k32_rep3.is_codeword(BitVector.from_text("100"))

    def test_failing_constraints(self, k32_rep3):
        assert k32_rep3.failing_constraints(BitVector.from_text("000").to_bytes01()) == []
        assert k32_rep3.failing_constraints(BitVector.from_text("100").to_bytes01()) == [0, 1]

    def test_failing_constraints_localized_in_blocks(self):
        code = TannerCode(blocks_graph(3, 3), repetition_code(3))
        x = BitVector.from_text("000" + "100" + "000")
        assert code.failing_constraints(x.to_bytes01()) == [1]

    def test_length_mismatch(self, k32_rep3):
        with pytest.raises(ValueError):
            k32_rep3.is_codeword(BitVector.from_text("0000"))
        # unchecked, a short word would be read past its end and a long
        # word's tail would go unread
        with pytest.raises(ValueError):
            k32_rep3.failing_constraints(bytes(k32_rep3.n - 1))
        with pytest.raises(ValueError):
            k32_rep3.failing_constraints(bytearray(k32_rep3.n + 1))


class TestEncode:
    def test_zero_message(self, k32_rep3):
        assert k32_rep3.encode(BitVector.zeros(1)) == BitVector.zeros(3)

    def test_unit_message(self, k32_rep3):
        assert k32_rep3.encode(BitVector.from_text("1")) == BitVector.from_text("111")

    def test_encode_gives_codewords_and_is_injective(self):
        code = TannerCode(blocks_graph(3, 3), repetition_code(3))
        assert code.dim == 3
        seen = set()
        for bits in range(8):
            cw = code.encode(BitVector(3, bits))
            assert code.is_codeword(cw)
            seen.add(cw.bits)
        assert len(seen) == 8

    def test_encode_positive_rate(self):
        """(3,12) graph at n=480 with the [12,11,2] parity-check inner code,
        dimension 360: seeded messages encode to the XOR of their basis
        vectors and pass every constraint."""
        code = TannerCode(gen_random_biregular(3, 12, 480, seed=1), parity_check_code(12))
        assert code.dim == 360
        rng = random.Random(7)
        for weight in (1, 2, 180, 360):
            ones = rng.sample(range(360), weight)
            expected = 0
            for i in ones:
                expected ^= code.generator[i].bits
            cw = code.encode(BitVector.from_indices(360, ones))
            assert cw == BitVector(480, expected) and cw.bits
            assert code.failing_constraints(cw.to_bytes01()) == []

    def test_wrong_message_length(self, k32_rep3):
        with pytest.raises(ValueError):
            k32_rep3.encode(BitVector.zeros(2))


class TestBruteForce:
    def test_k32_min_distance(self, k32_rep3):
        assert k32_rep3.min_distance_bruteforce() == 3

    def test_dim_zero_rejected(self, dim_zero_code):
        assert dim_zero_code.dim == 0
        with pytest.raises(ValueError):
            dim_zero_code.min_distance_bruteforce()

    def test_dim_guard(self):
        code = TannerCode(blocks_graph(25, 3), repetition_code(3))
        assert code.dim == 25
        with pytest.raises(ValueError):
            code.min_distance_bruteforce()

    def test_enumeration_guards(self):
        # 30 disjoint [2,1,2] blocks: 2^30 codewords, past both caps
        code = TannerCode(gen_random_biregular(1, 2, 60, seed=0), parity_check_code(2))
        assert code.dim == 30
        with pytest.raises(ValueError, match="dimension 30 exceeds 24"):
            next(code.codewords())
        with pytest.raises(ValueError, match="dimension 30 exceeds 20"):
            code.nearest_codeword_oracle(BitVector.zeros(60))

    def test_oracle_length_mismatch(self, k32_rep3):
        with pytest.raises(ValueError, match="length mismatch: expected 3, got 4"):
            k32_rep3.nearest_codeword_oracle(BitVector.zeros(4))

    def test_oracle_on_codeword(self, k32_rep3):
        cw = BitVector.from_text("111")
        assert k32_rep3.nearest_codeword_oracle(cw) == (cw, 0)

    def test_oracle_nearest(self, k32_rep3):
        best, dist = k32_rep3.nearest_codeword_oracle(BitVector.from_text("110"))
        assert (best.to_text(), dist) == ("111", 1)
        best, dist = k32_rep3.nearest_codeword_oracle(BitVector.from_text("100"))
        assert (best.to_text(), dist) == ("000", 1)

    def test_oracle_tie_break_lexicographic(self):
        code = TannerCode(blocks_graph(2, 2), repetition_code(2))
        # 1000 is at distance 1 from both 0000 and 1100
        best, dist = code.nearest_codeword_oracle(BitVector.from_text("1000"))
        assert dist == 1
        assert best.to_text() == "0000"


def test_three_way_membership_agreement(k32_rep3, big_code):
    cases = [
        (k32_rep3, 50),
        (TannerCode(blocks_graph(2, 4), parity_check_code(4)), 50),
        (TannerCode(gen_random_biregular(3, 6, 12, seed=9), parity_check_code(6)), 50),
        (big_code, 20),
    ]
    rng = random.Random(0)
    for code, words in cases:
        for _ in range(words):
            x = BitVector(code.n, rng.getrandbits(code.n))
            via_constraints = code.is_codeword(x)
            via_unsat = not code.failing_constraints(x.to_bytes01())
            via_matrix = mat_vec_mul(code.global_h, x).bits == 0
            assert via_constraints == via_unsat == via_matrix


@pytest.fixture(scope="module")
def blocks_4_8() -> TannerCode:
    return TannerCode(blocks_graph(4, 8), ext_hamming_inner())


@pytest.fixture(scope="module")
def one_constraint() -> TannerCode:
    return TannerCode(gen_random_biregular(1, 8, 8, seed=0), ext_hamming_inner())


@pytest.fixture(scope="module")
def wide_code() -> TannerCode:
    return TannerCode(gen_random_biregular(3, 12, 48, seed=0), wide_inner_12_6_4())


@pytest.mark.parametrize(
    "fixture", ["k32_rep3", "big_code", "blocks_4_8", "one_constraint", "wide_code"]
)
def test_failing_constraints_matches_global_h(request, fixture):
    """failing_constraints against the rows of global_h, the reference built
    without read_restriction, on dense random and sparse words."""
    code = request.getfixturevalue(fixture)
    n, m, r = code.n, code.graph.n_right, code.inner.h.rows
    rng = random.Random(5)
    words = [bytes(n), bytes([1]) * n]
    words += [bytes(rng.getrandbits(1) for _ in range(n)) for _ in range(6)]
    for weight in (1, 2, 3, 9):
        word = bytearray(n)
        for v in rng.sample(range(n), min(weight, n)):
            word[v] = 1
        words.append(word)
    global_h = code.global_h
    for word in words:
        syndrome = mat_vec_mul(global_h, BitVector.from_bytes01(word)).bits
        via_global_h = [u for u in range(m) if (syndrome >> (u * r)) & ((1 << r) - 1)]
        assert code.failing_constraints(word) == via_global_h


@pytest.mark.parametrize(
    "fixture", ["k32_rep3", "k32_code", "small_expander_code", "dim_zero_code"]
)
def test_dim_matches_rank(request, fixture):
    code = request.getfixturevalue(fixture)
    if isinstance(code, tuple):  # small_expander_code also carries params
        code = code[0]
    _, rank, _ = column_scan_rref(code.global_h)
    assert code.dim == len(code.generator) == code.n - rank


@pytest.fixture(scope="module")
def parity_2_8() -> TannerCode:
    """(2,8) graph at n=64 with the [8,7,2] parity-check inner code: 49
    generators, so most reduced rows hold free columns."""
    return TannerCode(gen_random_biregular(2, 8, 64, seed=4), parity_check_code(8))


@pytest.fixture(scope="module")
def lowerbound_code() -> TannerCode:
    """The n=20 small-distance graph with the [4,3,2] parity-check inner
    code: its three tail-covering constraints all end at coordinate 19, and
    others tie on their last left neighbour too, so the generator's row
    order has ties to break."""
    return TannerCode(build_lowerbound_graph(4, 2, 20, seed=0)[0], parity_check_code(4))


# blocks_4_8's constraints end at distinct left vertices in constraint order,
# so last-neighbour order is the constraint order there
@pytest.mark.parametrize(
    "fixture",
    ["k32_rep3", "wide_code", "dim_zero_code", "parity_2_8", "blocks_4_8", "lowerbound_code"],
)
def test_generator_matches_column_scan_kernel(request, fixture):
    code = request.getfixturevalue(fixture)
    assert code.generator == tuple(column_scan_kernel(code.global_h))


def test_generator_of_workload_code_is_all_ones(big_code):
    """The (12,8) n=2000 code with the [8,4,4] inner code has dimension 1:
    its one nonzero codeword is the all-ones word."""
    assert big_code.dim == 1
    assert big_code.generator == (BitVector(2000, (1 << 2000) - 1),)


def test_generator_matches_column_scan_kernel_positive_rate():
    """(3,12) graph at n=480 with the [12,11,2] parity-check inner code:
    dimension 360, and reduced rows dense in free columns."""
    code = TannerCode(gen_random_biregular(3, 12, 480, seed=1), parity_check_code(12))
    assert code.generator == tuple(column_scan_kernel(code.global_h))
    assert code.dim == 360


def test_generator_never_reads_global_h(monkeypatch, parity_2_8):
    def refuse(self):
        raise AssertionError("generator built the stacked checks")

    expected = column_scan_kernel(parity_2_8.global_h)
    monkeypatch.setattr(TannerCode, "global_h", property(refuse))
    code = TannerCode(parity_2_8.graph, parity_2_8.inner)
    assert code.generator == tuple(expected)
    assert code.dim == 49


def test_nonzero_codeword_weights_bounded_below(k32_rep3):
    md = k32_rep3.min_distance_bruteforce()
    assert all(cw.weight() >= md for cw in k32_rep3.codewords() if cw.bits)


class TestCorrupt:
    def test_weight_and_determinism(self):
        x = BitVector.zeros(40)
        a = corrupt(x, 7, seed=3)
        b = corrupt(x, 7, seed=3)
        c = corrupt(x, 7, seed=4)
        assert a == b
        assert a.weight() == 7
        assert a != c

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            corrupt(BitVector.zeros(4), 5, seed=0)


def test_bundle_round_trip(tmp_path, k32_rep3):
    graph_path = tmp_path / "g.bigraph"
    inner_path = tmp_path / "c.innercode"
    manifest = tmp_path / "code.tanner"
    graph_path.write_text(k32_rep3.graph.to_text())
    inner_path.write_text(k32_rep3.inner.to_text())
    write_bundle(manifest, "g.bigraph", "c.innercode")
    loaded = load_bundle(manifest)
    assert loaded.graph.left_adj == k32_rep3.graph.left_adj
    assert loaded.inner.h == k32_rep3.inner.h
    assert manifest.read_text().startswith("tanner v1 ")


@pytest.mark.parametrize(
    "graph, inner", [("my g.bigraph", "c.innercode"), ("g.bigraph", "c\t.innercode")]
)
def test_write_bundle_rejects_whitespace(tmp_path, graph, inner):
    # load_bundle splits the manifest on whitespace, so it could not read it
    manifest = tmp_path / "code.tanner"
    with pytest.raises(ValueError, match="whitespace"):
        write_bundle(manifest, graph, inner)
    assert not manifest.exists()


def test_bundle_rejects_bad_manifest(tmp_path):
    manifest = tmp_path / "code.tanner"
    manifest.write_text("tanner v2 a b\n")
    with pytest.raises(ValueError):
        load_bundle(manifest)


def test_restriction_extract(k32_rep3):
    assert k32_rep3.graph.right_adj[0] == (0, 1, 2)
    for kind in (bytes, bytearray):
        assert k32_rep3.read_restriction(kind(b"\x01\x00\x01"), 0) == 0b101
        assert k32_rep3.read_restriction(kind(b"\x01\x01\x00"), 0) == 0b011
