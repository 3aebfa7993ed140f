from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import pytest

import tannerflip as tf
import tannerflip.decode_rand as decode_rand
from tannerflip.gf2 import BitVector
from tannerflip.decode_det import DecodeState
from tannerflip.decode_rand import (
    RandDecodeConfig,
    RandomizedAbort,
    randomized_decode,
    sample_flip_set,
    vertex_draw,
)
from tannerflip.tanner import corrupt


class TestConfig:
    def test_defaults_follow_schedule(self, k32_params):
        cfg = RandDecodeConfig.for_params(k32_params, seed=0)
        assert cfg.eps == pytest.approx(k32_params.eps0 * 1.0**2 / 4)
        t = k32_params.t
        shrink = 1 - 3 * cfg.eps * (1.0 * (t + 1) - 1) / (4 * t)
        expected = math.ceil(
            math.log(k32_params.gamma / k32_params.alpha) / math.log(shrink)
        )
        assert cfg.max_iters == max(1, expected)

    def test_overrides(self, k32_params):
        cfg = RandDecodeConfig.for_params(k32_params, seed=1, eps=0.01, max_iters=5)
        assert (cfg.eps, cfg.max_iters) == (0.01, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandDecodeConfig(eps=0.0, max_iters=3, seed=0)
        with pytest.raises(ValueError):
            RandDecodeConfig(eps=0.1, max_iters=0, seed=0)


class TestVertexDraw:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, -3])
    def test_matches_hashlib_reference(self, seed):
        # the draws must not depend on which module supplies blake2b
        for iteration, vertex in ((0, 0), (1, 7), (12, 31999)):
            h = hashlib.blake2b(
                iteration.to_bytes(8, "little") + vertex.to_bytes(8, "little"),
                digest_size=8,
                key=(seed & (2**64 - 1)).to_bytes(8, "little"),
            )
            expected = int.from_bytes(h.digest(), "little") / 2**64
            assert vertex_draw(seed, iteration, vertex) == expected

    def test_deterministic_and_in_range(self):
        a = vertex_draw(42, 1, 7)
        assert a == vertex_draw(42, 1, 7)
        assert 0.0 <= a < 1.0

    def test_keys_independent(self):
        draws = {vertex_draw(1, i, v) for i in range(3) for v in range(3)}
        assert len(draws) == 9

    def test_roughly_uniform(self):
        values = [vertex_draw(9, 0, v) for v in range(4000)]
        mean = statistics.fmean(values)
        # mean of 4000 uniforms: sigma = 1/sqrt(12*4000) ~ 0.0046
        assert abs(mean - 0.5) < 3 * 0.0046


class TestSampleFlipSet:
    def test_empty_buckets(self):
        buckets = [set() for _ in range(5)]
        assert sample_flip_set(buckets, 4, lambda v: 0.0) == set()

    def test_top_bucket_is_fair_coin(self):
        n_items = 100
        buckets = [set() for _ in range(5)]
        buckets[4] = set(range(n_items))
        sizes = []
        for seed in range(10_000):
            picked = sample_flip_set(buckets, 4, lambda v: vertex_draw(seed, 0, v))
            sizes.append(len(picked))
        mean = statistics.fmean(sizes)
        sigma_mean = math.sqrt(n_items * 0.25) / math.sqrt(len(sizes))
        assert abs(mean - n_items / 2) < 3 * sigma_mean

    def test_mixed_buckets_expected_size(self):
        c = 4
        buckets = [set() for _ in range(c + 1)]
        buckets[1] = set(range(0, 40))
        buckets[2] = set(range(40, 100))
        buckets[4] = set(range(100, 130))
        expected = sum(m * len(buckets[m]) for m in range(1, c + 1)) / (2 * c)
        var = sum(
            len(buckets[m]) * (m / (2 * c)) * (1 - m / (2 * c))
            for m in range(1, c + 1)
        )
        sizes = []
        for seed in range(10_000):
            sizes.append(len(sample_flip_set(buckets, c, lambda v: vertex_draw(seed, 1, v))))
        mean = statistics.fmean(sizes)
        assert abs(mean - expected) < 3 * math.sqrt(var / len(sizes))

    def test_deterministic(self):
        buckets = [set(), {1, 2, 3}, {4, 5}]
        a = sample_flip_set(buckets, 2, lambda v: vertex_draw(3, 2, v))
        b = sample_flip_set(buckets, 2, lambda v: vertex_draw(3, 2, v))
        assert a == b


def find_seed(predicate, limit=1000):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed found within limit")


class TestRandomizedDecode:
    def test_codeword_immediate_handoff(self, k32_code, k32_params):
        cfg = RandDecodeConfig.for_params(k32_params, seed=0)
        report = tf.RandDecodeReport()
        out = randomized_decode(
            k32_code, k32_params, cfg, BitVector.from_text("111"), report=report
        )
        assert out.to_text() == "111"
        assert report.handed_off and report.iterations == 1

    def test_accepting_seed_corrects(self, k32_code, k32_params):
        # vertex 0 holds two votes, so it is kept with probability 2/(2c) = 1/2
        seed = find_seed(lambda s: vertex_draw(s, 1, 0) < 0.5)
        cfg = RandDecodeConfig.for_params(k32_params, seed=seed)
        out = randomized_decode(k32_code, k32_params, cfg, BitVector.from_text("100"))
        assert out.to_text() == "000"

    def test_rejecting_seed_aborts(self, k32_code, k32_params):
        seed = find_seed(
            lambda s: all(vertex_draw(s, it, 0) >= 0.5 for it in (1, 2, 3))
        )
        cfg = RandDecodeConfig.for_params(k32_params, seed=seed, max_iters=3)
        with pytest.raises(RandomizedAbort):
            randomized_decode(k32_code, k32_params, cfg, BitVector.from_text("100"))

    def test_bitwise_reproducible(self, big_code, big_params):
        x = corrupt(BitVector.zeros(big_code.n), 10, seed=42)
        outs = []
        trajs = []
        for _ in range(2):
            cfg = RandDecodeConfig.for_params(big_params, seed=99)
            report = tf.RandDecodeReport()
            outs.append(randomized_decode(big_code, big_params, cfg, x, report=report))
            trajs.append(tuple(report.unsat_trajectory))
        assert outs[0] == outs[1]
        assert trajs[0] == trajs[1]

    def test_corrects_beyond_deterministic_radius(self, big_code, big_params):
        truth = BitVector.zeros(big_code.n)
        weight = 3 * math.floor(big_params.gamma * big_code.n)
        ok = 0
        for trial in range(10):
            x = corrupt(truth, weight, seed=900 + trial)
            cfg = RandDecodeConfig.for_params(big_params, seed=trial)
            try:
                ok += randomized_decode(big_code, big_params, cfg, x) == truth
            except (RandomizedAbort, tf.DecodeFailure):
                pass
        assert ok >= 9


def test_iterations_shrink_corruption(big_code, big_params):
    """Instrumented voting iterations remove corruption at least as fast as
    the configured shrink factor predicts, on average."""
    truth = BitVector.zeros(big_code.n)
    c = big_code.graph.c
    t = big_params.t
    eps = big_params.eps0 * big_params.delta**2 / 4
    predicted = 3 * eps * (big_params.delta * (t + 1) - 1) / (4 * t)
    reductions = []
    improved = 0
    total = 0
    for trial in range(10):
        x = corrupt(truth, 40, seed=1000 + trial)
        state = tf.DecodeState(big_code, big_params, x)
        for iteration in range(1, 6):
            before = sum(state.x)
            picked = sample_flip_set(
                state.buckets, c, lambda v: vertex_draw(trial, iteration, v)
            )
            state.apply_flips(picked)
            after = sum(state.x)
            total += 1
            improved += after <= before
            if before:
                reductions.append((before - after) / before)
    assert improved / total >= 0.9
    assert statistics.fmean(reductions) >= predicted


def rand_decode_big(code, params, weight, seed, report):
    """The randomized decode of pinned input (weight, seed) on the n=2000
    fixture; None when it aborts."""
    x = corrupt(BitVector.zeros(code.n), weight, seed=1000 * weight + seed)
    cfg = RandDecodeConfig.for_params(params, seed=seed)
    try:
        return randomized_decode(code, params, cfg, x, report=report)
    except RandomizedAbort:
        return None


# One line per decode: the word's 1-positions (null for an abort), the
# randomized report and the main report minus checks/inner_decodes/flips.
# Recorded while the hand-off still rebuilt the state from the word; the
# counters have counted the randomized phase too since then.
PINNED_RAND_DECODES = Path(__file__).with_name("pinned_rand_decodes.jsonl")


def test_pinned_randomized_decodes(big_code, big_params):
    lines = PINNED_RAND_DECODES.read_text().splitlines()
    assert len(lines) == 20
    for line in lines:
        pinned = json.loads(line)
        report = tf.RandDecodeReport()
        word = rand_decode_big(big_code, big_params, pinned["weight"], pinned["seed"], report)
        main = json.loads(report.main.to_json_line())
        for key in ("checks", "inner_decodes", "flips"):
            del main[key]
        got = {
            "weight": pinned["weight"],
            "seed": pinned["seed"],
            "word": None if word is None else list(word.indices()),
            "iterations": report.iterations,
            "unsat_trajectory": report.unsat_trajectory,
            "handed_off": report.handed_off,
            "main": main,
        }
        assert got == pinned


class TestHandOff:
    """randomized_decode sets the word up once and hands its DecodeState to
    main_decode."""

    @pytest.mark.parametrize("weight, seed", [(6, 1), (30, 3), (600, 1)])
    def test_one_state_per_decode(self, big_code, big_params, monkeypatch, weight, seed):
        built = []
        setup = DecodeState.__init__

        def init(state, *args):
            built.append(state)
            setup(state, *args)

        monkeypatch.setattr(DecodeState, "__init__", init)
        rand_decode_big(big_code, big_params, weight, seed, None)
        assert len(built) == 1

    def test_handed_state_equals_fresh_state(self, big_code, big_params, monkeypatch):
        handed = []
        original = decode_rand.main_decode

        def capture(code, params, state, report=None):
            fresh = DecodeState(code, params, state.x_vector())
            for name in ("x", "unsat", "targets", "votes", "buckets"):
                assert getattr(state, name) == getattr(fresh, name), name
            handed.append(state)
            return original(code, params, state, report=report)

        monkeypatch.setattr(decode_rand, "main_decode", capture)
        for weight, seed in [(6, 2), (9, 1), (30, 1), (300, 2), (600, 3)]:
            report = tf.RandDecodeReport()
            assert rand_decode_big(big_code, big_params, weight, seed, report) is not None
            assert report.handed_off
        assert len(handed) == 5

    @pytest.mark.parametrize(
        "weight, seed, handed_off", [(9, 1, True), (300, 3, True), (700, 1, False)]
    )
    def test_checks_equal_examined_work(
        self, big_code, big_params, monkeypatch, weight, seed, handed_off
    ):
        examined = [0]
        in_setup = [False]
        setup, refresh = DecodeState.__init__, DecodeState._refresh

        def init(state, *args):
            in_setup[0] = True  # set-up is charged n_right checks instead
            setup(state, *args)
            in_setup[0] = False

        def counted(state, us):
            if not in_setup[0]:
                examined[0] += len(us)
            return refresh(state, us)

        monkeypatch.setattr(DecodeState, "__init__", init)
        monkeypatch.setattr(DecodeState, "_refresh", counted)
        report = tf.RandDecodeReport()
        word = rand_decode_big(big_code, big_params, weight, seed, report)
        assert report.handed_off == handed_off == (word is not None)
        ops = report.main.ops
        assert ops.checks == ops.inner_decodes == big_code.graph.n_right + examined[0]
        assert examined[0] > 0

    def test_fresh_state_decodes_like_its_word(self, big_code, big_params):
        for weight, seed in [(1, 1), (3, 2), (7, 1), (9, 1)]:
            x = corrupt(BitVector.zeros(big_code.n), weight, seed=seed)
            reports = tf.DecodeReport(), tf.DecodeReport()
            outs = []
            for arg, report in zip((x, DecodeState(big_code, big_params, x)), reports):
                try:
                    outs.append(tf.main_decode(big_code, big_params, arg, report=report))
                except tf.DecodeFailure as exc:
                    outs.append(type(exc))
            assert outs[0] == outs[1]
            assert reports[0].to_json_line() == reports[1].to_json_line()

    def test_state_from_another_code_or_params_rejected(
        self, big_code, big_params, k32_code, k32_params
    ):
        state = DecodeState(big_code, big_params, BitVector.zeros(big_code.n))
        with pytest.raises(ValueError, match="another code or params"):
            tf.main_decode(k32_code, k32_params, state)
        other = tf.derive_params(c=12, d=8, alpha=0.03, delta=0.8, d0=4, n=2000)
        with pytest.raises(ValueError, match="another code or params"):
            tf.main_decode(big_code, other, state)
