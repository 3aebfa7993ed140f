"""Both decoders read the received word only through syndromes, so decoding
truth ^ e gives truth ^ decode(e) with the same report. This is why sweeps
corrupt the zero codeword only: a random codeword would test nothing more."""

from __future__ import annotations

import json

import tannerflip as tf
from tannerflip.gf2 import BitVector

WEIGHTS = (1, 2, 3, 5, 8, 12)
SEEDS_PER_WEIGHT = 5


def _errors(n: int) -> list[BitVector]:
    zero = BitVector.zeros(n)
    return [
        tf.corrupt(zero, w, seed=1000 * w + k) for w in WEIGHTS for k in range(SEEDS_PER_WEIGHT)
    ]


def _without_input_weight(report: tf.DecodeReport) -> dict:
    line = json.loads(report.to_json_line())
    del line["input_weight"]  # the received word's weight, which the truth changes
    return line


def _assert_shifted(word, base_word, truth: BitVector) -> None:
    """word decodes truth ^ e where base_word decodes e: a decoded word moves
    by truth, a failure keeps its type."""
    if isinstance(base_word, BitVector):
        assert word == truth ^ base_word
    else:
        assert word is base_word


def test_deterministic_decoder_commutes_with_codewords(dim3_code):
    code, params = dim3_code

    def decode(x):
        report = tf.DecodeReport()
        try:
            return tf.main_decode(code, params, x, report=report), report
        except tf.DecodeFailure as exc:
            return type(exc), report

    outcomes = set()
    for e in _errors(code.n):
        base_word, base = decode(e)
        assert base.ops.nodes > 0
        outcomes.add(base.outcome)
        for truth in code.codewords():
            word, report = decode(truth ^ e)
            _assert_shifted(word, base_word, truth)
            assert _without_input_weight(report) == _without_input_weight(base)
    assert outcomes == {"codeword", "no_acceptable_branch"}


def test_randomized_decoder_commutes_with_codewords(dim3_code):
    code, params = dim3_code
    cfg = tf.RandDecodeConfig.for_params(params, seed=77)

    def decode(x):
        report = tf.RandDecodeReport()
        try:
            return tf.randomized_decode(code, params, cfg, x, report=report), report
        except tf.DecodeFailure as exc:
            return type(exc), report

    iterations = set()
    for e in _errors(code.n):
        base_word, base = decode(e)
        iterations.add(base.iterations)
        for truth in code.codewords():
            word, report = decode(truth ^ e)
            _assert_shifted(word, base_word, truth)
            assert report.iterations == base.iterations
            assert report.unsat_trajectory == base.unsat_trajectory
            assert _without_input_weight(report.main) == _without_input_weight(base.main)
    assert max(iterations) > 1  # sampled flips ran past the first iteration
