"""Arbitrary inputs end in a result or a typed error, never anything else.

A decoder given any word of a small code returns a word that passes the
from-scratch membership check, or raises DecodeFailure (RandomizedAbort is one).
A parser given any text returns an object or raises ValueError, and a
manifest that names any files loads a code or raises ValueError or OSError."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

import tannerflip as tf
from tannerflip.gf2 import BitVector

from conftest import (
    assert_state_consistent,
    ext_hamming_inner,
    scan_small_code,
    wide_small_code,
)


@pytest.fixture(scope="module")
def small_codes(k32_code, k32_params, dim3_code):
    code48, params48 = scan_small_code()
    return {
        "k32_rep3": (k32_code, k32_params),
        # a short schedule, so that hard_search runs on every input
        "4_8_n32": (code48, dataclasses.replace(params48, s0=3, ell=4)),
        "dim3_2_8_n64": dim3_code,
        "wide_3_12_n48": wide_small_code(),
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
    except tf.DecodeFailure:
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


@pytest.mark.parametrize("name", ["k32_rep3", "4_8_n32", "dim3_2_8_n64", "wide_3_12_n48"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flips_keep_the_state_current(small_codes, name, data):
    # each step flips an arbitrary set or a vote bucket; the syndromes and
    # votes must match the word after each
    code, params = small_codes[name]
    n, c = code.n, code.graph.c
    state = tf.DecodeState(code, params, _word(data, n))
    steps = st.one_of(
        st.sets(st.integers(0, n - 1), max_size=6),
        st.integers(1, c),
    )
    for step in data.draw(st.lists(steps, max_size=8)):
        if isinstance(step, int):
            state.apply_flips(state.buckets[step])
        else:
            state.apply_flips(step)
        assert_state_consistent(state, code, params)


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


_MANIFEST_FILES = {
    "g.bigraph": _VALID[0],
    "c.innercode": _VALID[2],
    "h.innercode": _VALID[3],
    "bad.bigraph": "1 0 1 0\n0\n",
}
_MANIFEST_NAMES = [*_MANIFEST_FILES, "m.tanner", "latin1.bin", "sub", "..", ".", "missing"]


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("bundles")
    for name, text in _MANIFEST_FILES.items():
        (base / name).write_text(text)
    (base / "latin1.bin").write_bytes(b"\xff\xfe 2 3\n")
    (base / "sub").mkdir()
    return base


# path-free text: every name resolves inside the bundle directory or its parent
_token = st.one_of(
    st.sampled_from(_MANIFEST_NAMES),
    st.text(alphabet=st.characters(blacklist_characters="/\\"), max_size=8),
)


@st.composite
def _manifest(draw) -> str:
    """A valid manifest with a few tokens dropped, repeated or replaced, or
    any text."""
    tokens = ["tanner", "v1", "g.bigraph", "c.innercode"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "repeat", "replace"]))
        if edit == "replace" or not tokens:
            tokens[i:i + 1] = [draw(_token)]
        elif edit == "drop":
            del tokens[min(i, len(tokens) - 1)]
        else:
            tokens.insert(i, tokens[min(i, len(tokens) - 1)])
    sep = draw(st.sampled_from([" ", "\t", "\n", "  "]))
    return sep.join(tokens) + draw(st.sampled_from(["", "\n", " \n"]))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_manifest(), st.text(max_size=40)))
@example("tanner v1 g.bigraph c.innercode\n")
@example("tanner v1 g.bigraph h.innercode\n")
@example("tanner v1 sub c.innercode\n")
@example("tanner v1 latin1.bin c.innercode\n")
@example("tanner v1 g.bigraph\x00 c.innercode\n")
@example("\ud800 g.bigraph c.innercode")
def test_manifest_parser_on_arbitrary_text(bundle_dir, text):
    # a lone surrogate has no UTF-8 encoding: written as its surrogatepass
    # bytes, it reaches the parser as invalid UTF-8
    manifest = bundle_dir / "m.tanner"
    manifest.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        code = tf.load_bundle(manifest)
    except (ValueError, OSError):
        return
    assert isinstance(code, tf.TannerCode)
    assert code.graph.d == code.inner.d
