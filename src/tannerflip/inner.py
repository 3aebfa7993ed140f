"""Inner linear code with bounded-distance syndrome decoding.

The code is defined by a parity-check matrix over GF(2). Construction
brute-forces the minimum distance, keeps the syndrome of each unit vector
(`column_syndromes`: flipping bit j of a word XORs entry j into its
syndrome), and builds a complete syndrome -> coset leader table out to the
guaranteed correction radius, so bounded-distance decoding is a table
lookup. `vote_slots` derives from it, once per vote threshold, the map that
makes a flip decoder's vote decision one lookup too.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .gf2 import BitMatrix, BitVector, _min_weight, gray_span, nullspace_basis

MAX_BLOCK_LENGTH = 24


class InnerCode:
    """A binary [d, k0, d0] code held as parity checks plus decode tables."""

    def __init__(self, h: BitMatrix, g_rows: list[BitVector], d0: int) -> None:
        self.d = h.cols
        self.k0 = len(g_rows)
        self.d0 = d0
        self.h = h
        self.g = BitMatrix(self.k0, self.d, tuple(v.bits for v in g_rows))
        self.radius = (d0 - 1) // 2
        self.column_syndromes = h.columns()
        self.syndrome_table = self._build_syndrome_table()
        self._vote_slots: dict[int, dict[int, int]] = {}

    @classmethod
    def from_parity_check(cls, h: BitMatrix) -> InnerCode:
        """Build the code from any parity-check matrix (redundant rows allowed).
        One elimination, `nullspace_basis`, gives the generator; the checks
        kept are the reduced rows read back off it (`_reduced_rows`)."""
        if h.cols > MAX_BLOCK_LENGTH:
            raise ValueError(
                f"block length {h.cols} exceeds brute-force limit {MAX_BLOCK_LENGTH}"
            )
        if h.is_zero():
            raise ValueError("parity-check matrix must be nonzero")
        g_rows = nullspace_basis(h)
        if not g_rows:
            raise ValueError("code has dimension 0; minimum distance undefined")
        rows = _reduced_rows(g_rows, h.cols)
        d0 = _min_weight(h.cols, tuple(v.bits for v in g_rows))
        return cls(BitMatrix(len(rows), h.cols, rows), g_rows, d0)

    def _build_syndrome_table(self) -> dict[int, int]:
        table = {0: 0}
        for w in range(1, self.radius + 1):
            for positions in combinations(range(self.d), w):
                err = 0
                for p in positions:
                    err |= 1 << p
                syn = self.syndrome_bits(err)
                if syn in table:
                    # two patterns of weight <= radius sharing a syndrome would
                    # mean a codeword of weight < d0
                    assert table[syn].bit_count() < w, "ambiguous coset leader"
                    continue
                table[syn] = err
        return table

    def vote_slots(self, t: int) -> dict[int, int]:
        """The vote decision for flip decoding with vote threshold t: each
        syndrome whose coset leader weighs 1..t maps to the position of the
        leader's lowest 1-bit; every other syndrome sends no vote. Built
        once per t from `syndrome_table` and cached on the code."""
        slots = self._vote_slots.get(t)
        if slots is None:
            slots = self._vote_slots[t] = {
                syn: (leader & -leader).bit_length() - 1
                for syn, leader in self.syndrome_table.items()
                if 0 < leader.bit_count() <= t
            }
        return slots

    def syndrome_bits(self, word_bits: int) -> int:
        """Syndrome of a packed d-bit word: bit i is the parity of row i of h
        on the word. It is the XOR of the column syndromes at the word's
        1-bits, so the cost is per 1-bit."""
        columns = self.column_syndromes
        syn = 0
        while word_bits:
            low = word_bits & -word_bits
            syn ^= columns[low.bit_length() - 1]
            word_bits ^= low
        return syn

    def check(self, w: BitVector) -> bool:
        """True iff w is a codeword (all parity checks pass)."""
        if w.n != self.d:
            raise ValueError(f"length mismatch: expected {self.d}, got {w.n}")
        return self.syndrome_bits(w.bits) == 0

    def leader_for(self, word_bits: int) -> int | None:
        """Coset leader for a packed word, or None outside the decode radius."""
        return self.syndrome_table.get(self.syndrome_bits(word_bits))

    def decode_bounded(self, w: BitVector) -> BitVector | None:
        """Nearest codeword if within radius floor((d0-1)/2), else None."""
        if w.n != self.d:
            raise ValueError(f"length mismatch: expected {self.d}, got {w.n}")
        leader = self.leader_for(w.bits)
        if leader is None:
            return None
        return BitVector(self.d, w.bits ^ leader)

    def enumerate_codewords(self) -> Iterator[BitVector]:
        """All 2^k0 codewords, Gray-code order starting from zero."""
        if self.k0 > MAX_BLOCK_LENGTH:
            raise ValueError("dimension too large to enumerate")
        yield from gray_span(self.d, self.g.row_bits)

    def to_text(self) -> str:
        lines = [f"{self.d} {self.h.rows}"]
        for row in self.h.row_bits:
            lines.append("".join("1" if (row >> j) & 1 else "0" for j in range(self.d)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> InnerCode:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty inner-code file")
        try:
            d, r = (int(tok) for tok in lines[0].split())
        except ValueError as exc:
            raise ValueError("header must be 'd r'") from exc
        if len(lines) != 1 + r:
            raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            ln = ln.strip()
            if len(ln) != d or set(ln) - {"0", "1"}:
                raise ValueError("matrix rows must be d characters of 0/1")
            rows.append([1 if ch == "1" else 0 for ch in ln])
        return cls.from_parity_check(BitMatrix.from_rows(rows))


def _reduced_rows(kernel: list[BitVector], cols: int) -> tuple[int, ...]:
    """The nonzero rows of the reduced row-echelon form (columns read from
    bit 0) of any matrix whose right kernel has this basis, as
    `nullspace_basis` gives it, in pivot order; there are cols - len(kernel)
    of them. The free columns are the kernel vectors' top bits, the pivots
    are the other columns, and a pivot's row is its unit bit plus every free
    column whose kernel vector holds that pivot. The reduced form of a row
    space is unique, so these are the rows a row elimination gives."""
    free = {vector.bits.bit_length() - 1 for vector in kernel}
    reduced = {p: 1 << p for p in range(cols) if p not in free}
    for vector in kernel:
        *hit, f = vector.indices()
        for p in hit:
            reduced[p] |= 1 << f
    return tuple(reduced.values())


def parity_check_code(d: int) -> InnerCode:
    """The even-weight code of length d (single all-ones check)."""
    return InnerCode.from_parity_check(BitMatrix(1, d, ((1 << d) - 1,)))


def repetition_code(d: int) -> InnerCode:
    """The length-d repetition code {0...0, 1...1}."""
    rows = [(1 | (1 << j)) for j in range(1, d)]
    return InnerCode.from_parity_check(BitMatrix(d - 1, d, tuple(rows)))


__all__ = [
    "InnerCode",
    "MAX_BLOCK_LENGTH",
    "parity_check_code",
    "repetition_code",
]
