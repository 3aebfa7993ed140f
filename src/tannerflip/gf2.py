"""Bit-packed GF(2) vectors and matrices using int bitsets (LSB = index 0)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

_DIGITS_OF_BYTES = bytes.maketrans(b"\x00\x01", b"01")
_BYTES_OF_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_NONZERO_BYTES = bytes([0] + [1] * 255)  # translate table: each byte to 0/1
_BITS_OF_BYTE = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))
# `from_bytes01` packs a 0/1 byte word one 1 at a time when at most
# 1/_PACK_PER_ONE of its bytes are 1, and through `_pack_digits` otherwise.
# Finding and packing a 1 costs about 0.3 us and `_pack_digits` about 3 ns a
# byte (Python 3.11, unscaled), so packing per 1 would stay faster up to about
# n/100 ones; the lower limit keeps the finds that a dense word wastes before
# the walk gives up to a few percent of `_pack_digits`.
_PACK_PER_ONE = 4096


def _ones(word: bytes | bytearray, most: int = -1) -> list[int] | None:
    """The positions of the 1-bytes of a 0/1 byte word, ascending, found
    with `find`, so the cost is per 1-byte. Given `most` >= 0, None as soon
    as more than `most` are found."""
    ones = []
    v = word.find(1)
    while v >= 0:
        if len(ones) == most:
            return None
        ones.append(v)
        v = word.find(1, v + 1)
    return ones


def _pack_digits(word: bytes | bytearray) -> int:
    """A nonempty 0/1 byte word packed through one `int(s, 2)` over its
    digits: a few C passes over every byte, whatever the word's weight."""
    return int(word.translate(_DIGITS_OF_BYTES)[::-1], 2)


@dataclass(frozen=True, slots=True)
class BitVector:
    """Immutable GF(2) vector of fixed length, packed into a single int.
    Slotted: callers keep many of them (received and decoded words)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("length must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits outside declared length")

    @classmethod
    def zeros(cls, n: int) -> BitVector:
        return cls(n, 0)

    @classmethod
    def from_text(cls, text: str) -> BitVector:
        text = text.strip()
        if text and set(text) - {"0", "1"}:
            raise ValueError("bit string must contain only '0'/'1'")
        return cls.from_bytes01(text.encode().translate(_BYTES_OF_DIGITS))

    @classmethod
    def from_bytes01(cls, word: bytes | bytearray) -> BitVector:
        """The vector whose coordinate i is word[i], for a word of 0/1 bytes.

        A word with at most n/_PACK_PER_ONE 1-bytes is packed per 1 (`_ones`,
        then `from_indices`); the walk gives up at the first 1 past that, and
        a denser word is packed through `_pack_digits`, which costs the same
        at every weight."""
        n = len(word)
        ones = _ones(word, n // _PACK_PER_ONE)
        if ones is None:
            return cls(n, _pack_digits(word))
        return cls.from_indices(n, ones)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> BitVector:
        """The vector with 1s at the given coordinates, each ORed into a
        packed byte map, so the cost is per index plus one `from_bytes`."""
        packed = bytearray((n + 7) >> 3)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            packed[i >> 3] |= 1 << (i & 7)
        return cls(n, int.from_bytes(packed, "little"))

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def distance(self, other: BitVector) -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.bits ^ other.bits).bit_count()

    def indices(self) -> list[int]:
        """Positions of the nonzero coordinates, ascending. The packed bytes'
        nonzero ones are found by one C scan, and each is expanded through
        a table of its bit positions, so the cost is per 1 beyond that scan."""
        packed = self.bits.to_bytes((self.n + 7) >> 3, "little")
        out = []
        for k in _ones(packed.translate(_NONZERO_BYTES)):
            base = k << 3
            for j in _BITS_OF_BYTE[packed[k]]:
                out.append(base + j)
        return out

    def to_bytes01(self) -> bytes:
        """One 0/1 byte per coordinate, coordinate i at index i."""
        if not self.n:
            return b""
        digits = format(self.bits, f"0{self.n}b")[::-1]
        return digits.encode().translate(_BYTES_OF_DIGITS)

    def to_text(self) -> str:
        return self.to_bytes01().translate(_DIGITS_OF_BYTES).decode()

    def __xor__(self, other: BitVector) -> BitVector:
        """Coordinatewise GF(2) sum."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return BitVector(self.n, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix stored as one int bitset per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits beyond declared column count")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> BitMatrix:
        packed = []
        cols = None
        for row in rows:
            row = list(row)
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise ValueError("ragged rows")
            bits = 0
            for i, v in enumerate(row):
                if v:
                    bits |= 1 << i
            packed.append(bits)
        if cols is None:
            raise ValueError("matrix needs at least one row")
        return cls(len(packed), cols, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def columns(self) -> tuple[int, ...]:
        """Column j packed (row i at bit i), transposed one 1-bit at a time."""
        columns = [0] * self.cols
        for i, row in enumerate(self.row_bits):
            for j in BitVector(self.cols, row).indices():
                columns[j] |= 1 << i
        return tuple(columns)


def mat_vec_mul(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2); entry r is the parity of row r AND v.
    No decoder multiplies by a matrix: this is the reference that the tests
    compare `TannerCode.failing_constraints` and `generator` against."""
    if m.cols != v.n:
        raise ValueError(f"dimension mismatch: {m.cols} cols vs vector length {v.n}")
    bits = 0
    for i, row in enumerate(m.row_bits):
        if (row & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVector(m.rows, bits)


def gray_span(n: int, generators: tuple[int, ...]) -> Iterator[BitVector]:
    """Every sum of a subset of the packed generators, in Gray-code order from
    zero: each step adds one generator."""
    word = 0
    yield BitVector(n, word)
    for counter in range(1, 1 << len(generators)):
        word ^= generators[(counter & -counter).bit_length() - 1]
        yield BitVector(n, word)


def _min_weight(n: int, generators: tuple[int, ...]) -> int:
    """The least weight of a nonzero word in the span of the packed
    generators (at least one), by brute force over `gray_span`."""
    return min(word.weight() for word in gray_span(n, generators) if word.bits)


def nullspace_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of the right kernel of m; one vector per free column, ascending."""
    return _column_kernel(m.columns(), m.cols)


def _column_kernel(columns: Iterable[int], n: int) -> list[BitVector]:
    """The kernel basis of the matrix with these n packed columns: for each
    free column f, ascending, f plus the pivot columns that sum to it, as read
    off the reduced row-echelon form. Each column is reduced against a basis
    keyed by top bit, tracking the earlier columns XORed into it; one with a
    new top bit joins the basis, and one that reduces to zero is free, its
    tracked int its kernel vector. The basis holds rank pairs of rows + n bits."""
    basis: dict[int, tuple[int, int]] = {}
    kernel = []
    for v, column in enumerate(columns):
        tracked = 1 << v
        while column:
            top = column.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = column, tracked
                break
            column ^= pivot[0]
            tracked ^= pivot[1]
        else:
            kernel.append(BitVector(n, tracked))
    return kernel


__all__ = [
    "BitVector",
    "BitMatrix",
    "mat_vec_mul",
    "nullspace_basis",
    "gray_span",
]
