"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all;
pytest's own verdict carries the same information). Tolerances are fixed
here, not tuned at runtime. Everything is seeded, so reruns are identical up
to wall-clock columns.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

import tannerflip as tf
from tannerflip.gf2 import BitMatrix, BitVector
from tannerflip.graphs import BipartiteGraph, gen_random_biregular, verify_expansion
from tannerflip.inner import parity_check_code, repetition_code
from tannerflip.tanner import TannerCode, corrupt

from conftest import ext_hamming_inner, two_block_inner_6_3


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def blocks_graph(blocks: int, d: int) -> BipartiteGraph:
    return BipartiteGraph(1, d, [[v // d] for v in range(blocks * d)])


def lowerbound_inner(d: int, d0: int) -> tf.InnerCode:
    if d0 == 2:
        return parity_check_code(d)
    if (d, d0) == (6, 3):
        return two_block_inner_6_3()
    raise ValueError


def lowerbound_divisible(d: int, d0: int, n: int) -> bool:
    for c in range(3, 17):
        rest = n - d0 - (d - d0) * c
        if rest < 0:
            break
        if rest % d == 0 and ((n - d0) * (c - 1)) % d == 0:
            return True
    return False


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_lowerbound_construction():
    checked = 0
    for d, d0 in ((4, 2), (6, 2), (6, 3), (8, 2)):
        inner = lowerbound_inner(d, d0)
        hits = 0
        for n in range(10 * d0, 41):
            if not lowerbound_divisible(d, d0, n):
                continue
            graph, c, alpha = tf.build_lowerbound_graph(d, d0, n, seed=0)
            code = TannerCode(graph, inner)
            tail = BitVector.from_indices(n, range(n - d0, n))
            assert code.is_codeword(tail), (d, d0, n)
            assert code.min_distance_bruteforce() <= d0, (d, d0, n)
            assert verify_expansion(graph, 0.9 * alpha, 1 / d0).verified, (d, d0, n)
            hits += 1
        assert hits >= 3, f"too few constructible n for (d={d}, d0={d0})"
        checked += hits
    report(1, "small-distance construction", True, f"{checked} (d,d0,n) instances")


# ---------------------------------------------------------------- criterion 2

VERIFIED_FIXTURES = [
    # (c, d, n, seed, alpha, delta)
    (2, 3, 3, 0, 1 / 3, 1.0),
    (12, 8, 30, 12, 2 / 30, 0.75),
    (12, 8, 30, 44, 3 / 30, 0.62),
    (2, 4, 12, 6, 2 / 12, 0.75),
]


def test_criterion_2_degree_counting_bound():
    subsets_checked = 0
    for c, d, n, seed, alpha, delta in VERIFIED_FIXTURES:
        g = gen_random_biregular(c, d, n, seed=seed)
        assert verify_expansion(g, alpha, delta).verified
        s_max = math.floor(alpha * n)
        for size in range(1, s_max + 1):
            for subset in combinations(range(n), size):
                for t in range(1, d + 1):
                    assert tf.verify_counting_bound(g, subset, t, delta), (
                        c, d, n, subset, t,
                    )
                subsets_checked += 1
    report(2, "degree-counting bound", True, f"{subsets_checked} subsets, all t")


# ----------------------------------------------------- criteria 3 and 4 data


class TraceSweep:
    """Exhaustive single-round instrumentation over all |F| <= alpha*n."""

    def __init__(self, code, params, alpha, delta):
        self.code = code
        self.params = params
        self.alpha = alpha
        self.delta = delta
        self.records: list[tuple[int, tf.TruthTrace]] = []
        truth = BitVector.zeros(code.n)
        state = tf.DecodeState(code, params, truth)
        s_max = math.floor(alpha * code.n)
        for size in range(1, s_max + 1):
            for subset in combinations(range(code.n), size):
                state.apply_flips(subset)
                trace = tf.compute_truth_trace(state, truth)
                self.records.append((size, trace))
                state.apply_flips(subset)


@pytest.fixture(scope="module")
def trace_sweeps():
    sweeps = []
    k32 = TannerCode(gen_random_biregular(2, 3, 3, seed=0), repetition_code(3))
    k32_params = tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3)
    sweeps.append(TraceSweep(k32, k32_params, 1 / 3, 1.0))
    g = gen_random_biregular(12, 8, 30, seed=12)
    code = TannerCode(g, ext_hamming_inner())
    params = tf.derive_params(c=12, d=8, alpha=2 / 30, delta=0.75, d0=4, n=30)
    sweeps.append(TraceSweep(code, params, 2 / 30, 0.75))
    g3 = gen_random_biregular(12, 8, 30, seed=44)
    code3 = TannerCode(g3, ext_hamming_inner())
    params3 = tf.derive_params(c=12, d=8, alpha=3 / 30, delta=0.62, d0=4, n=30)
    sweeps.append(TraceSweep(code3, params3, 3 / 30, 0.62))
    return sweeps


def test_criterion_3_single_round_progress_exists(trace_sweeps):
    checked = 0
    for sweep in trace_sweeps:
        c = sweep.code.graph.c
        eps3 = sweep.params.eps3
        for size, trace in sweep.records:
            best = min(
                trace.post_flip_corrupt_count(m) for m in range(1, c + 1)
            )
            assert best <= (1 - eps3) * size, (sweep.code.n, sorted(trace.corrupt))
            checked += 1
    report(3, "one-round progress exists", True, f"{checked} error sets, 3 fixtures")


def test_criterion_4_voting_inequalities(trace_sweeps, oracle_fixtures):
    traced = 0
    in_range = 0
    for sweep in trace_sweeps + oracle_fixtures_traces(oracle_fixtures):
        params = sweep.params
        c = sweep.code.graph.c
        alpha_n = math.floor(sweep.alpha * sweep.code.n)
        cap = 1 + c / (params.d0 - params.t)
        vote_floor = (params.delta * (params.t + 1) - 1) / params.t * c
        gap_floor = params.eps0 * params.delta**2 * c
        for size, trace in sweep.records:
            n_corrupt = len(trace.corrupt)
            n_a, n_b = len(trace.correct_senders), len(trace.confused_senders)
            total_votes = sum(
                m * trace.bucket_sizes[m] for m in range(1, c + 1)
            )
            assert total_votes == n_a + n_b
            for m in range(1, c + 1):
                if trace.bucket_sizes[m]:
                    assert trace.corrupt_fraction(m) >= trace.trusted_vote_fraction(m)
                assert trace.post_flip_corrupt_count(m) <= cap * n_corrupt
            if size <= alpha_n:
                # these two floors hold only in the verified expansion range
                assert n_a >= vote_floor * n_corrupt
                assert n_a - n_b >= gap_floor * n_corrupt
                in_range += 1
            traced += 1
    report(
        4,
        "voting inequalities",
        True,
        f"{traced} instrumented rounds, {in_range} within the expansion range",
    )


# ---------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def oracle_fixtures():
    fixtures = []
    k32 = TannerCode(gen_random_biregular(2, 3, 3, seed=0), repetition_code(3))
    fixtures.append(
        (k32, tf.derive_params(c=2, d=3, alpha=1 / 3, delta=1.0, d0=3, n=3))
    )
    blocks = TannerCode(blocks_graph(3, 3), repetition_code(3))
    fixtures.append(
        (blocks, tf.derive_params(c=1, d=3, alpha=1 / 9, delta=1.0, d0=3, n=9))
    )
    g = gen_random_biregular(2, 4, 12, seed=6)
    assert verify_expansion(g, 2 / 12, 0.75).verified
    rep4 = TannerCode(g, repetition_code(4))
    fixtures.append(
        (rep4, tf.derive_params(c=2, d=4, alpha=2 / 12, delta=0.75, d0=4, n=12))
    )
    return fixtures


class _FixtureTraces:
    def __init__(self, code, params, alpha, records):
        self.code = code
        self.params = params
        self.alpha = alpha
        self.records = records


def oracle_fixtures_traces(oracle_fixtures):
    """One instrumented voting round per criterion-5 decode input."""
    sweeps = []
    for code, params in oracle_fixtures:
        truth = BitVector.zeros(code.n)
        state = tf.DecodeState(code, params, truth)
        records = []
        for size in (1, 2):
            for subset in combinations(range(code.n), size):
                state.apply_flips(subset)
                records.append((size, tf.compute_truth_trace(state, truth)))
                state.apply_flips(subset)
        sweeps.append(_FixtureTraces(code, params, params.alpha, records))
    return sweeps


def test_criterion_5_oracle_equivalence(oracle_fixtures):
    in_radius = 0
    unique_nearest = 0
    for code, params in oracle_fixtures:
        assert code.dim <= 16 and code.n <= 20
        radius = params.gamma * code.n
        d_min = code.min_distance_bruteforce()
        for truth in code.codewords():
            for weight in range(0, 3):
                for subset in combinations(range(code.n), weight):
                    x = truth ^ BitVector.from_indices(code.n, subset)
                    oracle_cw, oracle_dist = code.nearest_codeword_oracle(x)
                    try:
                        decoded = tf.main_decode(code, params, x)
                    except tf.DecodeFailure:
                        decoded = None
                    if oracle_dist <= radius:
                        in_radius += 1
                        assert decoded is not None, (code.n, x.to_text())
                        assert decoded == oracle_cw, (code.n, x.to_text())
                    if decoded is not None and 2 * oracle_dist < d_min:
                        unique_nearest += 1
                        assert decoded == oracle_cw, (code.n, x.to_text())
    report(
        5,
        "oracle equivalence",
        True,
        f"{in_radius} in-radius inputs, {unique_nearest} unique-nearest decodes",
    )


# ---------------------------------------------------------------- criterion 6

LARGE_ALPHA = 0.02
LARGE_DELTA = 0.8


def _large_code(n: int, seed: int) -> tuple[TannerCode, tf.DecoderParams]:
    graph = gen_random_biregular(12, 8, n, seed=seed)
    code = TannerCode(graph, ext_hamming_inner())
    params = tf.derive_params(
        c=12, d=8, alpha=LARGE_ALPHA, delta=LARGE_DELTA, d0=4, n=n
    )
    return code, params


def test_criterion_6_decoding_radius_at_scale():
    trials = 0
    successes = 0
    setups = [(2000, 1, 120), (2000, 2, 120), (8000, 3, 100)]
    for n, graph_seed, per_weight in setups:
        code, params = _large_code(n, graph_seed)
        truth = BitVector.zeros(n)
        radius = math.floor(params.gamma * n)
        weights = sorted({max(1, radius // 3), max(1, (2 * radius) // 3), radius})
        for weight in weights:
            for trial in range(per_weight):
                x = corrupt(truth, weight, seed=trial * 7919 + weight)
                trials += 1
                try:
                    successes += tf.main_decode(code, params, x) == truth
                except tf.DecodeFailure:
                    pass
    rate = successes / trials
    report(
        6,
        "decoding radius at scale",
        trials >= 1000 and rate >= 0.995,
        f"{successes}/{trials} = {rate:.4f} (floor 0.995)",
    )


# ---------------------------------------------------------------- criterion 7

SEARCH_OPS_CONSTANT = 1.0  # pinned: ops per (n + |F|) unit, all trials


def test_criterion_7_linear_time_contract():
    sizes = (2000, 4000, 8000, 16000, 32000)
    mean_ops = []
    ratio_max = 0.0
    for n in sizes:
        code, params = _large_code(n, seed=10 + n % 7)
        truth = BitVector.zeros(n)
        weight = math.floor(params.gamma * n)
        totals = []
        for trial in range(5):
            x = corrupt(truth, weight, seed=5000 + trial)
            rep = tf.DecodeReport()
            out = tf.main_decode(code, params, x, report=rep)
            assert out == truth
            totals.append(rep.ops.total())
            # search-layer cost: ops spent after state setup, per call
            state = tf.DecodeState(code, params, x)
            corrupt_count = (x ^ truth).weight()
            while len(state.unsat):
                before = state.ops.total()
                tf.hard_search(state)
                spent = state.ops.total() - before
                ratio_max = max(ratio_max, spent / (n + corrupt_count))
                corrupt_count = (state.x_vector() ^ truth).weight()
        mean_ops.append(sum(totals) / len(totals))
    slope = (math.log(mean_ops[-1]) - math.log(mean_ops[0])) / (
        math.log(sizes[-1]) - math.log(sizes[0])
    )
    ok = slope <= 1.15 and ratio_max <= SEARCH_OPS_CONSTANT
    report(
        7,
        "linear-time contract",
        ok,
        f"log-log slope {slope:.3f} (cap 1.15), search ops/(n+|F|) max "
        f"{ratio_max:.3f} (cap {SEARCH_OPS_CONSTANT})",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_randomized_decoder():
    code, params = _large_code(2000, seed=1)
    truth = BitVector.zeros(2000)
    radius = math.floor(params.gamma * 2000)
    weights = (radius, 2 * radius, 3 * radius)
    trials = 0
    successes = 0
    for weight in weights:
        for trial in range(67):
            x = corrupt(truth, weight, seed=trial * 104729 + weight)
            cfg = tf.RandDecodeConfig.for_params(params, seed=trial + weight)
            trials += 1
            try:
                successes += tf.randomized_decode(code, params, cfg, x) == truth
            except tf.DecodeFailure:
                pass
    rate = successes / trials

    # sampling statistics at a fixed voting state with |F| = alpha*n
    x = corrupt(truth, math.floor(LARGE_ALPHA * 2000), seed=31337)
    state = tf.DecodeState(code, params, x)
    trace = tf.compute_truth_trace(state, truth)
    n_senders = len(trace.senders)
    c = code.graph.c
    eps = params.eps0 * params.delta**2 / 4
    expect_p = n_senders / (2 * c)
    draws = 400
    p_sizes = []
    hits = []
    for seed in range(draws):
        picked = tf.sample_flip_set(state.buckets, c, tf.iteration_draw(seed, 1))
        p_sizes.append(len(picked))
        hits.append(len(picked & trace.corrupt))
    mean_p = sum(p_sizes) / draws
    mean_hits = sum(hits) / draws
    sigma_p = math.sqrt(expect_p) / math.sqrt(draws)  # Bernoulli variance bound
    size_ok = abs(mean_p - expect_p) <= max(3 * sigma_p, eps * expect_p)
    majority_ok = mean_hits >= (0.5 + eps) * expect_p - 3 * sigma_p

    # bitwise reproducibility
    x2 = corrupt(truth, 2 * radius, seed=777)
    outs = []
    for _ in range(2):
        cfg = tf.RandDecodeConfig.for_params(params, seed=123)
        rep = tf.RandDecodeReport()
        outs.append(
            (
                tf.randomized_decode(code, params, cfg, x2, report=rep),
                tuple(rep.unsat_trajectory),
            )
        )
    reproducible = outs[0] == outs[1]

    ok = rate >= 0.95 and size_ok and majority_ok and reproducible
    report(
        8,
        "randomized decoder",
        ok,
        f"success {successes}/{trials} = {rate:.3f} (floor 0.95); "
        f"|P| mean {mean_p:.2f} vs {expect_p:.2f}; corrupt hits {mean_hits:.2f} "
        f">= {(0.5 + eps) * expect_p - 3 * sigma_p:.2f}; reproducible={reproducible}",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_random_graph_neighbor_calibration():
    n = 2000
    graph = gen_random_biregular(12, 8, n, seed=1)
    alpha = 0.02
    bound = tf.expected_neighbor_lower_bound(12, 8, alpha)
    by_hand = (12 / 8) * (1 - (1 - alpha) ** 8) - 2 * alpha * math.sqrt(
        12 * (1 + math.log(1 / alpha))
    )
    assert bound == pytest.approx(by_hand)
    size = math.floor(alpha * n)
    rng = random.Random(2024)
    masks = graph.left_masks
    hits = 0
    samples = 10_000
    for _ in range(samples):
        mask = 0
        for v in rng.sample(range(n), size):
            mask |= masks[v]
        if mask.bit_count() / n >= bound:
            hits += 1
    rate = hits / samples
    report(
        9,
        "random-graph neighbor calibration",
        rate >= 0.99,
        f"{hits}/{samples} samples >= bound {bound:.4f} (floor 0.99)",
    )
