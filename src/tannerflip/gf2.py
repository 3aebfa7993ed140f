"""Bit-packed GF(2) vectors and matrices using int bitsets (LSB = index 0)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

_DIGITS_OF_BYTES = bytes.maketrans(b"\x00\x01", b"01")
_BYTES_OF_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


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
        """The vector whose coordinate i is word[i], for a word of 0/1 bytes."""
        if not word:
            return cls(0, 0)
        return cls(len(word), int(word.translate(_DIGITS_OF_BYTES)[::-1], 2))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> BitVector:
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def distance(self, other: BitVector) -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.bits ^ other.bits).bit_count()

    def indices(self) -> list[int]:
        """Positions of the nonzero coordinates, ascending."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
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
        return add(self, other)

    def __len__(self) -> int:
        return self.n


def add(a: BitVector, b: BitVector) -> BitVector:
    """Coordinatewise GF(2) sum (XOR)."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return BitVector(a.n, a.bits ^ b.bits)


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


def mat_vec_mul(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2); entry r is the parity of row r AND v."""
    if m.cols != v.n:
        raise ValueError(f"dimension mismatch: {m.cols} cols vs vector length {v.n}")
    bits = 0
    for i, row in enumerate(m.row_bits):
        if (row & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVector(m.rows, bits)


def rref(m: BitMatrix) -> tuple[BitMatrix, int, list[int]]:
    """Reduced row-echelon form over GF(2), with columns read left-to-right
    (bit 0 first). Returns (reduced matrix, rank, pivot columns).

    Each row is reduced against a basis keyed by lowest set bit until it
    vanishes or brings a new lowest bit; the basis rows, sorted by pivot, are
    then back-substituted from the last pivot down. The reduced form of a row
    space is unique, so the output does not depend on the row order: the rank
    nonzero rows in pivot order, then the zero rows.
    """
    basis: dict[int, int] = {}
    for row in m.row_bits:
        while row:
            low = row & -row
            pivot_row = basis.get(low)
            if pivot_row is None:
                basis[low] = row
                break
            row ^= pivot_row
    lows = sorted(basis)
    reduced: dict[int, int] = {}
    above = 0  # the pivots already reduced
    for low in reversed(lows):
        row = basis[low]
        hits = row & above
        while hits:
            high = hits & -hits
            row ^= reduced[high]
            hits ^= high
        reduced[low] = row
        above |= low
    rank = len(lows)
    rows = tuple(reduced[low] for low in lows) + (0,) * (m.rows - rank)
    return BitMatrix(m.rows, m.cols, rows), rank, [low.bit_length() - 1 for low in lows]


def gray_span(n: int, generators: tuple[int, ...]) -> Iterator[BitVector]:
    """Every sum of a subset of the packed generators, in Gray-code order from
    zero: each step adds one generator."""
    word = 0
    yield BitVector(n, word)
    for counter in range(1, 1 << len(generators)):
        word ^= generators[(counter & -counter).bit_length() - 1]
        yield BitVector(n, word)


def nullspace_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of the right kernel of m; one vector per free column."""
    reduced, rank, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        bits = 1 << fc
        for r, pc in enumerate(pivots):
            if (reduced.row_bits[r] >> fc) & 1:
                bits |= 1 << pc
        basis.append(BitVector(m.cols, bits))
    return basis


__all__ = [
    "BitVector",
    "BitMatrix",
    "add",
    "mat_vec_mul",
    "rref",
    "nullspace_basis",
    "gray_span",
]
