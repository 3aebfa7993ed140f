from __future__ import annotations

import dataclasses
import warnings
from collections import Counter

import pytest

import tannerflip as tf
from tannerflip.gf2 import BitMatrix, BitVector

warnings.filterwarnings(
    "ignore", message="delta\\*d0", category=UserWarning
)


# the parity checks behind the inner codes below
EXT_HAMMING_CHECKS = BitMatrix.from_rows(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ]
)
TWO_BLOCK_CHECKS = BitMatrix.from_rows(
    [
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
    ]
)
_CIRCULANT = [1, 1, 0, 1, 0, 0]
WIDE_12_6_4_CHECKS = BitMatrix.from_rows(
    [[int(j == i) for j in range(6)] + _CIRCULANT[6 - i :] + _CIRCULANT[: 6 - i] for i in range(6)]
)


def ext_hamming_inner() -> tf.InnerCode:
    """The [8,4,4] extended Hamming code."""
    return tf.InnerCode.from_parity_check(EXT_HAMMING_CHECKS)


def two_block_inner_6_3() -> tf.InnerCode:
    """[6,2,3] code spanned by 111000 and 000111."""
    return tf.InnerCode.from_parity_check(TWO_BLOCK_CHECKS)


def wide_inner_12_6_4() -> tf.InnerCode:
    """[12,6,4] code with parity checks [I | circulant(110100)]: its words
    span two 8-bit chunks."""
    return tf.InnerCode.from_parity_check(WIDE_12_6_4_CHECKS)


def column_scan_rref(m: BitMatrix) -> tuple[BitMatrix, int, list[int]]:
    """The reference elimination: pivots found scanning columns left to right
    and rows top-down, each pivot row cleared from every other row."""
    work = list(m.row_bits)
    pivots: list[int] = []
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, len(work)) if (work[r] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return BitMatrix(m.rows, m.cols, tuple(work)), rank, pivots


def column_scan_kernel(m: BitMatrix) -> list[BitVector]:
    """The reference kernel basis, read off `column_scan_rref`: for each free
    column, ascending, that column plus the pivot of every row that holds it."""
    reduced, _, pivots = column_scan_rref(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        bits = 1 << free
        for row, pivot in zip(reduced.row_bits, pivots):
            if (row >> free) & 1:
                bits |= 1 << pivot
        basis.append(BitVector(m.cols, bits))
    return basis


def reference_votes(code: tf.TannerCode, params, x: BitVector):
    """Recompute the voting state from definitions via decode_bounded."""
    syndromes = reference_syndromes(code, x.to_bytes01())
    unsat = {u for u, syndrome in enumerate(syndromes) if syndrome}
    targets = {}
    votes: Counter[int] = Counter()
    for u in range(code.graph.n_right):
        r_bits = 0
        for j, v in enumerate(code.graph.right_adj[u]):
            r_bits |= x.bit(v) << j
        decoded = code.inner.decode_bounded(BitVector(code.inner.d, r_bits))
        if decoded is None:
            continue
        mismatch = decoded.bits ^ r_bits
        if not 1 <= mismatch.bit_count() <= params.t:
            continue
        pos = (mismatch & -mismatch).bit_length() - 1
        v = code.graph.right_adj[u][pos]
        targets[u] = v
        votes[v] += 1
    return unsat, targets, votes


def reference_syndromes(code: tf.TannerCode, word) -> list[int]:
    """Each constraint's inner syndrome, read from the word itself."""
    syndrome_bits, read = code.inner.syndrome_bits, code.read_restriction
    return [syndrome_bits(read(word, u)) for u in range(code.graph.n_right)]


def reference_bounds(params, steps: int | None = None) -> list[float]:
    """The pruning bounds b_k = c*gamma*n * (1 - eps3)^k for k = 0..steps
    (default s0), by the paper's formula in floats; the reference for
    DecoderParams.prune_bounds' reach table."""
    top = params.c * params.gamma * params.n
    steps = params.s0 if steps is None else steps
    return [top * (1.0 - params.eps3) ** k for k in range(steps + 1)]


def assert_no_dead_entries(state: tf.DecodeState):
    """The state's maps hold live entries only: no zero syndrome, no -1
    target and no zero count."""
    assert 0 not in state._syn.values()
    assert -1 not in state.targets.values()
    assert 0 not in state.votes.values()


def assert_state_consistent(state: tf.DecodeState, code, params):
    syndromes = reference_syndromes(code, state.x)
    assert state._syn == {u: s for u, s in enumerate(syndromes) if s}
    unsat, targets, votes = reference_votes(code, params, state.x_vector())
    assert state.unsat == unsat
    assert state.targets == targets
    assert state.votes == dict(votes)
    assert_no_dead_entries(state)
    for m in range(1, code.graph.c + 1):
        assert state.buckets[m] == {v for v, k in votes.items() if k == m}
    # hard_search reads "some vote is pending" as any(buckets)
    assert not state.buckets[0]
    assert any(state.buckets) == bool(targets)


@pytest.fixture(scope="session")
def k32_code() -> tf.TannerCode:
    """The unique simple (2,3)-biregular graph on 3+2 vertices, repetition inner."""
    graph = tf.gen_random_biregular(2, 3, 3, seed=0)
    return tf.TannerCode(graph, tf.repetition_code(3))


@pytest.fixture(scope="session")
def k32_params() -> tf.DecoderParams:
    return tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3)


@pytest.fixture(scope="session")
def big_code() -> tf.TannerCode:
    """(12,8) random graph at n=2000 with the [8,4,4] inner code."""
    graph = tf.gen_random_biregular(12, 8, 2000, seed=1)
    return tf.TannerCode(graph, ext_hamming_inner())


@pytest.fixture(scope="session")
def big_params() -> tf.DecoderParams:
    return tf.derive_params(c=12, d=8, alpha=0.02, delta=0.8, d0=4, n=2000)


@pytest.fixture(scope="session")
def small_expander_code() -> tuple[tf.TannerCode, tf.DecoderParams]:
    """Exhaustively verified (12,8,2/30,0.75)-expander at n=30, [8,4,4] inner."""
    graph = tf.gen_random_biregular(12, 8, 30, seed=12)
    assert tf.verify_expansion(graph, 2 / 30, 0.75).verified
    code = tf.TannerCode(graph, ext_hamming_inner())
    params = tf.derive_params(c=12, d=8, alpha=2 / 30, delta=0.75, d0=4, n=30)
    return code, params


def scan_small_code() -> tuple[tf.TannerCode, tf.DecoderParams]:
    """(4,8) random graph at n=32 with the [8,4,4] inner code."""
    code = tf.TannerCode(tf.gen_random_biregular(4, 8, 32, seed=2), ext_hamming_inner())
    params = tf.derive_params(c=4, d=8, alpha=0.1, delta=0.8, d0=4, n=32)
    return code, params


def wide_small_code() -> tuple[tf.TannerCode, tf.DecoderParams]:
    """(3,12) random graph at n=48 with the [12,6,4] inner code, whose
    restrictions span two 8-bit chunks."""
    code = tf.TannerCode(tf.gen_random_biregular(3, 12, 48, seed=0), wide_inner_12_6_4())
    params = tf.derive_params(c=3, d=12, alpha=0.25, delta=0.8, d0=4, n=48)
    return code, params


@pytest.fixture(scope="session")
def dim3_code() -> tuple[tf.TannerCode, tf.DecoderParams]:
    """(2,8) n=64 graph with the [8,4,4] inner code: dimension 3, and a
    shortened schedule so that hard_search runs."""
    code = tf.TannerCode(tf.gen_random_biregular(2, 8, 64, seed=3), ext_hamming_inner())
    params = dataclasses.replace(tf.derive_params(2, 8, 0.3, 1.0, 4, 64), ell=4, s0=3)
    assert code.dim == 3
    return code, params
