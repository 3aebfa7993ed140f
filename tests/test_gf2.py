from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

import tannerflip.gf2 as gf2
from tannerflip.decode_det import DecodeReport
from tannerflip.gf2 import BitMatrix, BitVector, mat_vec_mul, nullspace_basis
from tannerflip.inner import InnerCode, _reduced_rows

from conftest import (
    EXT_HAMMING_CHECKS,
    TWO_BLOCK_CHECKS,
    WIDE_12_6_4_CHECKS,
    column_scan_kernel,
    column_scan_rref,
)


def vec(text: str) -> BitVector:
    return BitVector.from_text(text)


class TestAdd:
    def test_identity(self):
        assert vec("0000") ^ vec("0000") == vec("0000")

    def test_self_inverse(self):
        assert vec("1010") ^ vec("1010") == vec("0000")

    def test_bitwise_xor(self):
        assert vec("1100") ^ vec("0110") == vec("1010")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 != 3"):
            vec("10") ^ vec("100")


class TestMatVecMul:
    def test_identity_matrix(self):
        assert mat_vec_mul(BitMatrix.identity(3), vec("101")) == vec("101")

    def test_hand_example(self):
        m = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
        # row0: 1*1 + 1*1 + 0*0 = 0, row1: 1*1 + 0*1 + 1*0 = 1
        assert mat_vec_mul(m, vec("110")) == vec("01")

    def test_zero_vector(self):
        m = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
        assert mat_vec_mul(m, vec("000")) == vec("00")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec_mul(BitMatrix.identity(3), vec("10"))


def rref(m: BitMatrix) -> tuple[tuple[int, ...], int]:
    """What `InnerCode.from_parity_check` reads off m's one elimination: the
    nonzero rows of its reduced row-echelon form, and its rank."""
    kernel = nullspace_basis(m)
    return _reduced_rows(kernel, m.cols), m.cols - len(kernel)


def reference_rref(m: BitMatrix) -> tuple[tuple[int, ...], int]:
    """The same two, read off `column_scan_rref`."""
    reduced, rank, _ = column_scan_rref(m)
    return reduced.row_bits[:rank], rank


class TestRref:
    def test_identity(self):
        assert rref(BitMatrix.identity(2)) == (BitMatrix.identity(2).row_bits, 2)

    def test_duplicate_rows(self):
        assert rref(BitMatrix.from_rows([[1, 1], [1, 1]])) == ((0b11,), 1)

    def test_rank_two(self):
        _, rank = rref(BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]]))
        assert rank == 2


def span_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    """Rows drawn from the span of a few random rows: often rank-deficient."""
    span = [rng.getrandbits(cols) for _ in range(rng.randint(1, rows))]
    bits = []
    for _ in range(rows):
        word = 0
        for row in span:
            if rng.getrandbits(1):
                word ^= row
        bits.append(word)
    return BitMatrix(rows, cols, tuple(bits))


# wider than one 30-bit int digit, on both sides of the digit boundaries
WIDE_COLS = (*range(29, 34), *range(60, 67), 200)


def wide_matrices() -> list[BitMatrix]:
    """For each wide column count: all-zero rows, a random matrix with zero
    rows mixed in, and rank-deficient spans short, square and tall."""
    rng = random.Random(29)
    out = []
    for cols in WIDE_COLS:
        out.append(BitMatrix(3, cols, (0, 0, 0)))
        mixed = (0, rng.getrandbits(cols), 0, rng.getrandbits(cols), 0, 1 << (cols - 1))
        out.append(BitMatrix(6, cols, mixed))
        for rows in (1, 2, cols // 2, cols + 3):
            out.append(span_matrix(rng, rows, cols))
    return out


def min_weight_reference(m: BitMatrix) -> int:
    """The least weight of a nonzero word that passes every check of m, by a
    scan of all 2^cols words."""
    return min(
        w.bit_count()
        for w in range(1, 1 << m.cols)
        if all((row & w).bit_count() % 2 == 0 for row in m.row_bits)
    )


# the checks behind the test suite's inner codes and repetition_code(3), then
# the repetition code from a redundant third check
INNER_CHECKS = (
    EXT_HAMMING_CHECKS,
    TWO_BLOCK_CHECKS,
    WIDE_12_6_4_CHECKS,
    BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]]),
    BitMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]]),
)


def test_rref_matches_column_scan_reference(dim3_code, monkeypatch):
    rng = random.Random(2024)
    deficient = 0
    for _ in range(2000):
        m = span_matrix(rng, rng.randint(1, 12), rng.randint(1, 16))
        expected = reference_rref(m)
        assert rref(m) == expected, m
        deficient += expected[1] < min(m.rows, m.cols)
    assert deficient >= 1000
    wide_deficient = 0
    for m in wide_matrices():
        expected = reference_rref(m)
        assert rref(m) == expected, m
        wide_deficient += expected[1] < min(m.rows, m.cols)
    assert wide_deficient >= 2 * len(WIDE_COLS)
    code, _ = dim3_code
    # no rows, no columns, no pivot; then a code's stacked checks and the
    # inner codes' checks
    edges = (BitMatrix(0, 5, ()), BitMatrix(3, 0, (0, 0, 0)), BitMatrix(4, 7, (0,) * 4))
    for m in (*edges, code.global_h, *INNER_CHECKS):
        assert rref(m) == reference_rref(m), m
    # an inner code keeps those rows as its checks, read off its one
    # elimination, which also gives its generator
    calls = []
    column_kernel = gf2._column_kernel

    def counted(columns, n):
        calls.append(n)
        return column_kernel(columns, n)

    monkeypatch.setattr(gf2, "_column_kernel", counted)
    for m in INNER_CHECKS:
        calls.clear()
        inner = InnerCode.from_parity_check(m)
        assert calls == [m.cols], m
        rows, rank = reference_rref(m)
        assert inner.h == BitMatrix(rank, m.cols, rows), m
        assert list(inner.g.row_bits) == [v.bits for v in column_scan_kernel(m)], m
        assert inner.d0 == min_weight_reference(m), m


def test_nullspace_matches_column_scan_kernel(dim3_code):
    rng = random.Random(2025)
    cases = [span_matrix(rng, rng.randint(1, 12), rng.randint(1, 16)) for _ in range(500)]
    cases += wide_matrices() + [dim3_code[0].global_h]
    for m in cases:
        assert nullspace_basis(m) == column_scan_kernel(m), m


class TestNullspace:
    def test_trivial_kernel(self):
        assert nullspace_basis(BitMatrix.identity(3)) == []

    def test_repetition_kernel(self):
        basis = nullspace_basis(BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]]))
        assert basis == [vec("111")]

    def test_full_kernel(self):
        basis = nullspace_basis(BitMatrix(1, 3, (0,)))
        assert len(basis) == 3


def random_matrix(draw) -> BitMatrix:
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 8))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(bits))


matrices = st.builds(
    lambda rows, cols, seed_bits: BitMatrix(
        rows, cols, tuple(b & ((1 << cols) - 1) for b in seed_bits[:rows])
    ),
    st.integers(1, 6),
    st.integers(1, 8),
    st.lists(st.integers(0, 2**8 - 1), min_size=6, max_size=6),
)

vectors = st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
).map(lambda t: BitVector(*t))


@given(vectors, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_add_group_laws(a, b_bits, c_bits):
    b = BitVector(a.n, b_bits & ((1 << a.n) - 1))
    c = BitVector(a.n, c_bits & ((1 << a.n) - 1))
    assert a ^ b == b ^ a
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ a == BitVector.zeros(a.n)


@given(matrices)
def test_nullspace_orthogonal_and_rank_nullity(m):
    _, rank = reference_rref(m)
    basis = nullspace_basis(m)
    assert rank + len(basis) == m.cols
    for v in basis:
        assert mat_vec_mul(m, v).bits == 0
    # independence: every nonzero combination is nonzero (kernel enumeration
    # doubles as an independent count check for small matrices)
    seen = set()
    for mask in range(1 << len(basis)):
        w = 0
        for i, v in enumerate(basis):
            if (mask >> i) & 1:
                w ^= v.bits
        seen.add(w)
    assert len(seen) == 1 << len(basis)


@given(matrices)
def test_kernel_complete_by_enumeration(m):
    # independent oracle: count kernel vectors directly
    if m.cols > 12:
        return
    kernel = sum(
        1
        for w in range(1 << m.cols)
        if all((row & w).bit_count() % 2 == 0 for row in m.row_bits)
    )
    _, rank = rref(m)
    assert kernel == 1 << (m.cols - rank)


def test_rowspace_preserved_by_rref():
    m = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    reduced, _ = rref(m)
    span = set()
    for mask in range(1 << m.rows):
        w = 0
        for i in range(m.rows):
            if (mask >> i) & 1:
                w ^= m.row_bits[i]
        span.add(w)
    span_reduced = set()
    for mask in range(1 << len(reduced)):
        w = 0
        for i in range(len(reduced)):
            if (mask >> i) & 1:
                w ^= reduced[i]
        span_reduced.add(w)
    assert span == span_reduced


def test_bitvector_basics():
    v = BitVector.from_indices(5, [0, 3])
    assert v.to_text() == "10010"
    assert v.weight() == 2
    assert v.indices() == [0, 3]
    assert v.distance(BitVector.zeros(5)) == 2
    with pytest.raises(ValueError):
        BitVector(3, 8)
    for bad in (3, -1):
        with pytest.raises(ValueError, match=f"index {bad} out of range for length 3"):
            BitVector.from_indices(3, [0, bad])
    with pytest.raises(ValueError):
        BitVector.from_text("01x")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BitVector(-1, 0), "length must be nonnegative"),
        (lambda: BitVector(3, 0).distance(BitVector(4, 0)), "length mismatch"),
        (lambda: BitMatrix(2, 3, (1,)), "row count mismatch"),
        (lambda: BitMatrix(1, 3, (8,)), "row has bits beyond declared column count"),
        (lambda: BitMatrix.from_rows([[1, 0], [1]]), "ragged rows"),
    ],
    ids=["negative-length", "distance-lengths", "row-count", "wide-row", "ragged"],
)
def test_malformed_input_rejected(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@given(vectors)
@example(BitVector(0, 0))
@example(BitVector(70, (1 << 70) - 1))
@example(BitVector(97, 0x1_5A5A_0F0F_F0F0_3C3C_C3C3_9669))
def test_text_and_byte_word_round_trip(v):
    text = v.to_text()
    assert text == "".join(str(v.bit(i)) for i in range(v.n))
    assert BitVector.from_text(text) == v
    word = v.to_bytes01()
    assert word == bytes(v.bit(i) for i in range(v.n))
    assert BitVector.from_bytes01(word) == v
    assert BitVector.from_bytes01(bytearray(word)) == v


def reference_indices(bits: int) -> list[int]:
    """The big-int walk: peel off the lowest set bit, one at a time."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def reference_pack(indices) -> int:
    """The big-int pack: OR in one shifted bit per index."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def conversion_cases():
    """(n, ascending 1-positions) for lengths around the byte and digit
    boundaries, at weights 0, 1, sparse, both sides of the per-1 packing
    limit (which is 2 at n = 9000), about n/2, n-1 and n."""
    rng = random.Random(21)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 2000, 9000):
        limit = n // gf2._PACK_PER_ONE
        for weight in sorted({0, 1, n // 200, limit, limit + 1, n // 2, n - 1, n}):
            if 0 <= weight <= n:
                yield n, sorted(rng.sample(range(n), weight))


def test_conversions_match_big_int_walks(monkeypatch):
    digit_packs = []
    pack_digits = gf2._pack_digits

    def counted(word):
        digit_packs.append(len(word))
        return pack_digits(word)

    monkeypatch.setattr(gf2, "_pack_digits", counted)
    sides = set()
    for n, ones in conversion_cases():
        bits = reference_pack(ones)
        v = BitVector(n, bits)
        assert v.indices() == reference_indices(bits) == ones
        assert BitVector.from_indices(n, ones) == v
        assert BitVector.from_indices(n, reversed(ones + ones[:1])) == v
        word = bytes(bits >> i & 1 for i in range(n))
        assert v.to_bytes01() == word
        digit_packs.clear()
        assert BitVector.from_bytes01(word) == v
        assert BitVector.from_bytes01(bytearray(word)) == v
        # at most n/_PACK_PER_ONE 1-bytes are packed one at a time, more
        # through the digits
        dense = len(ones) > n // gf2._PACK_PER_ONE
        assert digit_packs == ([n, n] if dense else [])
        sides.add(dense)
    assert sides == {False, True}


def test_pickle_round_trip():
    # sweeps send codes, with their generator words, to worker processes
    v = BitVector(70, (1 << 69) | 5)
    assert pickle.loads(pickle.dumps(v)) == v
    report = DecodeReport(input_weight=2, unsat_per_round=[4, 0], outcome="codeword")
    report.ops.flips = 3
    assert pickle.loads(pickle.dumps(report)) == report
