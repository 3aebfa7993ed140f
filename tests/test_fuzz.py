"""Arbitrary inputs end in a result or a typed error, never anything else.

A decoder given any word of a small code returns a word that passes the
from-scratch membership check, or raises DecodeFailure or RandomizedAbort.
A parser given any text returns an object or raises ValueError."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

import tannerflip as tf
from tannerflip.gf2 import BitVector

from conftest import ext_hamming_inner, scan_small_code


@pytest.fixture(scope="module")
def small_codes(k32_code, k32_params, dim3_code):
    code48, params48 = scan_small_code()
    return {
        "k32_rep3": (k32_code, k32_params),
        # a short schedule, so that hard_search runs on every input
        "4_8_n32": (code48, dataclasses.replace(params48, s0=3, ell=4)),
        "dim3_2_8_n64": dim3_code,
    }


def _word(data, n: int) -> BitVector:
    """Any word, or one within a few flips of zero."""
    sparse = st.sets(st.integers(0, n - 1), max_size=min(n, 8)).map(
        lambda ones: BitVector.from_indices(n, ones)
    )
    return data.draw(st.one_of(st.integers(0, 2**n - 1).map(lambda b: BitVector(n, b)), sparse))


def _assert_codeword_or_typed_failure(code, decode) -> None:
    try:
        word = decode()
    except (tf.DecodeFailure, tf.RandomizedAbort):
        return
    assert code.is_codeword(word)


@pytest.mark.parametrize("name", ["k32_rep3", "4_8_n32", "dim3_2_8_n64"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decoders_on_arbitrary_words(small_codes, name, data):
    code, params = small_codes[name]
    x = _word(data, code.n)
    _assert_codeword_or_typed_failure(code, lambda: tf.main_decode(code, params, x))
    cfg = tf.RandDecodeConfig.for_params(params, seed=data.draw(st.integers(0, 2**32)))
    _assert_codeword_or_typed_failure(
        code, lambda: tf.randomized_decode(code, params, cfg, x)
    )


_ints = st.integers(-1, 6).map(str)
_line = st.one_of(
    st.lists(_ints, max_size=5).map(" ".join),
    st.text(alphabet="01", max_size=9),
    st.text(max_size=8),
)
_VALID = (
    tf.gen_random_biregular(2, 3, 3, seed=0).to_text(),
    tf.gen_random_biregular(3, 4, 8, seed=1).to_text(),
    tf.repetition_code(3).to_text(),
    ext_hamming_inner().to_text(),
)


@st.composite
def _edited(draw) -> str:
    """A valid graph or inner-code file with a few lines dropped, repeated
    or replaced."""
    lines = draw(st.sampled_from(_VALID)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "repeat", "replace"]))
        if edit == "replace" or not lines:
            lines[i:i + 1] = [draw(_line)]
        elif edit == "drop":
            del lines[min(i, len(lines) - 1)]
        else:
            lines.insert(i, lines[min(i, len(lines) - 1)])
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_edited(), st.text(max_size=40)))
@example("1 0 1 0\n0\n")
@example("0 0 0 0\n")
@example("0 0\n")
def test_parsers_on_arbitrary_text(text):
    try:
        graph = tf.BipartiteGraph.from_text(text)
    except ValueError:
        pass
    else:
        assert tf.BipartiteGraph.from_text(graph.to_text()).left_adj == graph.left_adj
    try:
        inner = tf.InnerCode.from_text(text)
    except ValueError:
        pass
    else:
        assert tf.InnerCode.from_text(inner.to_text()).h == inner.h
