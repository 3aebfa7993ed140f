from __future__ import annotations

import random
from itertools import combinations

import pytest

from tannerflip.gf2 import BitMatrix, BitVector
from tannerflip.inner import InnerCode, parity_check_code, repetition_code

from conftest import ext_hamming_inner, two_block_inner_6_3, wide_inner_12_6_4


def hamming_7_4() -> InnerCode:
    # columns are the nonzero vectors of F_2^3
    rows = [[(j + 1) >> i & 1 for j in range(7)] for i in range(3)]
    return InnerCode.from_parity_check(BitMatrix.from_rows(rows))


def ext_hamming_8_4() -> InnerCode:
    return InnerCode.from_parity_check(
        BitMatrix.from_rows(
            [
                [1, 1, 1, 1, 1, 1, 1, 1],
                [0, 1, 0, 1, 0, 1, 0, 1],
                [0, 0, 1, 1, 0, 0, 1, 1],
                [0, 0, 0, 0, 1, 1, 1, 1],
            ]
        )
    )


def brute_force_codewords(code: InnerCode) -> list[int]:
    """Independent oracle: scan all 2^d words against the parity checks."""
    return [
        w
        for w in range(1 << code.d)
        if all((row & w).bit_count() % 2 == 0 for row in code.h.row_bits)
    ]


class TestFromParityCheck:
    def test_parity_4(self):
        code = parity_check_code(4)
        assert (code.k0, code.d0) == (3, 2)

    def test_repetition_3(self):
        code = repetition_code(3)
        assert (code.k0, code.d0) == (1, 3)
        assert sorted(cw.bits for cw in code.enumerate_codewords()) == [0, 0b111]

    def test_ext_hamming(self):
        code = ext_hamming_8_4()
        assert (code.k0, code.d0) == (4, 4)
        words = brute_force_codewords(code)
        assert len(words) == 16
        assert min(w.bit_count() for w in words if w) == 4

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            InnerCode.from_parity_check(BitMatrix(1, 4, (0,)))

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            InnerCode.from_parity_check(BitMatrix.identity(3))

    def test_block_length_guard(self):
        with pytest.raises(ValueError):
            InnerCode.from_parity_check(BitMatrix(1, 25, ((1 << 25) - 1,)))

    def test_redundant_rows_reduced(self):
        code = InnerCode.from_parity_check(
            BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        )
        assert code.h.rows == 2
        assert (code.k0, code.d0) == (1, 3)


class TestCheck:
    def test_rep3(self):
        code = repetition_code(3)
        assert code.check(BitVector.from_text("000"))
        assert not code.check(BitVector.from_text("110"))

    def test_parity_4_even_weight(self):
        assert parity_check_code(4).check(BitVector.from_text("1100"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            repetition_code(3).check(BitVector.from_text("0000"))


class TestDecodeBounded:
    def test_rep3_corrects_one(self):
        code = repetition_code(3)
        assert code.decode_bounded(BitVector.from_text("110")) == BitVector.from_text("111")

    def test_codeword_fixed_point(self):
        code = repetition_code(3)
        assert code.decode_bounded(BitVector.from_text("000")) == BitVector.from_text("000")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: expected 3, got 4"):
            repetition_code(3).decode_bounded(BitVector.from_text("0000"))

    def test_ext_hamming_weight_two_fails(self):
        code = ext_hamming_8_4()
        for i, j in combinations(range(8), 2):
            w = BitVector.from_indices(8, [i, j])
            assert code.decode_bounded(w) is None

    def test_all_radius_errors_corrected(self):
        for code in (repetition_code(3), ext_hamming_8_4(), hamming_7_4()):
            for y in code.enumerate_codewords():
                for wt in range(code.radius + 1):
                    for pos in combinations(range(code.d), wt):
                        e = BitVector.from_indices(code.d, pos)
                        assert code.decode_bounded(y ^ e) == y


class TestMinDistance:
    def test_examples(self):
        assert parity_check_code(4).d0 == 2
        assert repetition_code(3).d0 == 3
        assert hamming_7_4().d0 == 3


class TestEnumerate:
    def test_parity_2(self):
        assert sorted(cw.bits for cw in parity_check_code(2).enumerate_codewords()) == [0, 3]

    def test_hamming_7_4_closure(self):
        code = hamming_7_4()
        words = list(code.enumerate_codewords())
        assert len(words) == 16
        assert len({w.bits for w in words}) == 16
        assert all(code.check(w) for w in words)
        assert sorted(w.bits for w in words) == brute_force_codewords(code)


def row_loop_syndrome(code: InnerCode, word_bits: int) -> int:
    """Reference: bit i is the parity of parity-check row i on the word."""
    syn = 0
    for i, row in enumerate(code.h.row_bits):
        if (row & word_bits).bit_count() & 1:
            syn |= 1 << i
    return syn


@pytest.mark.parametrize(
    "make",
    [ext_hamming_inner, lambda: repetition_code(3), two_block_inner_6_3, wide_inner_12_6_4],
    ids=["ext_hamming_8_4_4", "repetition_3", "two_block_6_2_3", "wide_12_6_4"],
)
def test_chunk_syndromes_match_row_loop(make):
    code = make()
    for w in range(1 << code.d):
        assert code.syndrome_bits(w) == row_loop_syndrome(code, w)


def random_inner_24() -> InnerCode:
    """A seeded code with parity checks [I | A], A a random 12x12 matrix:
    its words have the largest length the brute force allows."""
    rng = random.Random(24)
    rows = [[int(j == i) for j in range(12)] + [rng.randrange(2) for _ in range(12)]
            for i in range(12)]
    return InnerCode.from_parity_check(BitMatrix.from_rows(rows))


@pytest.mark.parametrize("make", [wide_inner_12_6_4, random_inner_24], ids=["d12", "d24"])
def test_column_syndromes_sum_to_word_syndromes(make):
    # flipping bit j of a word XORs column_syndromes[j] into its syndrome
    code = make()
    columns = code.column_syndromes
    assert len(columns) == code.d
    rng = random.Random(code.d)
    for _ in range(400):
        w = rng.getrandbits(code.d)
        expected = 0
        for j in range(code.d):
            if w >> j & 1:
                expected ^= columns[j]
        assert code.syndrome_bits(w) == expected == row_loop_syndrome(code, w)
        j = rng.randrange(code.d)
        assert code.syndrome_bits(w ^ 1 << j) == expected ^ columns[j]


def test_check_iff_decode_fixed_point():
    for code in (repetition_code(3), parity_check_code(4), hamming_7_4()):
        for bits in range(1 << code.d):
            w = BitVector(code.d, bits)
            decoded = code.decode_bounded(w)
            assert code.check(w) == (decoded == w)


def test_text_round_trip():
    for code in (repetition_code(3), ext_hamming_8_4()):
        parsed = InnerCode.from_text(code.to_text())
        assert parsed.h == code.h
        assert (parsed.k0, parsed.d0) == (code.k0, code.d0)
        assert parsed.syndrome_table == code.syndrome_table


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        InnerCode.from_text("3\n111\n")
    with pytest.raises(ValueError):
        InnerCode.from_text("3 1\n11\n")
    with pytest.raises(ValueError):
        InnerCode.from_text("")
