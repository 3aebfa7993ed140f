"""In-memory spans around tannerflip's public entry points.

`Tracer.install()` rebinds each entry point, in every loaded tannerflip module
that binds it, to a wrapper that records a span: name, start, end, parent span
and decode id. The library looks these names up at call time, so its own call
paths (main_decode -> hard_search, sweep -> randomized_decode, ...) pass
through the wrappers too, and nothing in the library is edited.
`uninstall()` puts the originals back.

The library is single-threaded within a process, so spans nest by call order.
A span opened outside any decode by one of DECODE_ROOTS starts a new decode
id; every span beneath it shares that id. Spans stay in memory until `dump`.

A few wrappers also record counts at the same boundary:
- hard_search: `flips` applied and `net` coordinates changed by a committed
  call (a call that raises records neither);
- sample_flip_set: `draws` (voted variables offered to the sampler) and
  `picked`;
- randomized_decode: `phase_checks`, the checks counted by the randomized
  phase's own DecodeState, its set-up pass included.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

FUNCTIONS = (
    "gen_random_biregular",
    "derive_params",
    "hard_search",
    "main_decode",
    "sample_flip_set",
    "randomized_decode",
    "run_sweep",
)
METHODS = (("DecodeState", "__init__"), ("TannerCode", "is_codeword"))
DECODE_ROOTS = ("main_decode", "randomized_decode")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._decodes = 0
        self._patches: list[tuple[object, str, object]] = []
        # randomized_decode span id -> the DecodeState of its randomized phase
        self._phase_states: dict[int, object] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        decode = self.spans[parent]["decode"] if parent is not None else None
        if decode is None and name in DECODE_ROOTS:
            self._decodes += 1
            decode = self._decodes
        rec = {"id": len(self.spans), "name": name, "parent": parent, "decode": decode}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import tannerflip

        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "tannerflip" or key.startswith("tannerflip.")
        ]
        for name in FUNCTIONS:
            original = getattr(tannerflip, name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for cls_name, attr in METHODS:
            cls = getattr(tannerflip, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name, _call)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                return hook(self, rec, fn, *args, **kwargs)

        return wrapper

    def dump(self, path, meta: dict) -> None:
        """Write `meta` as the first JSON line, then one line per span with
        times in ms from the first span's start."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps(meta) + "\n")
            for rec in self.spans:
                line = dict(rec)
                line["start"] = (rec["start"] - t0) * 1e3
                line["end"] = (rec["end"] - t0) * 1e3
                out.write(json.dumps(line) + "\n")


def _call(tracer, rec, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _hard_search(tracer, rec, fn, state, *args, **kwargs):
    before = bytes(state.x)
    flips = state.ops.flips
    fn(state, *args, **kwargs)
    rec["flips"] = state.ops.flips - flips
    changed = int.from_bytes(before, "little") ^ int.from_bytes(state.x, "little")
    rec["net"] = changed.bit_count()  # bytes hold 0/1, so one bit per change


def _sample_flip_set(tracer, rec, fn, buckets, c, *args, **kwargs):
    rec["draws"] = sum(len(buckets[m]) for m in range(1, c + 1))
    picked = fn(buckets, c, *args, **kwargs)
    rec["picked"] = len(picked)
    return picked


def _state_init(tracer, rec, fn, state, *args, **kwargs):
    fn(state, *args, **kwargs)
    parent = rec["parent"]
    if parent is not None and tracer.spans[parent]["name"] == "randomized_decode":
        tracer._phase_states[parent] = state


def _randomized_decode(tracer, rec, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    finally:
        state = tracer._phase_states.pop(rec["id"], None)
        if state is not None:
            rec["phase_checks"] = state.ops.checks


_HOOKS = {
    "hard_search": _hard_search,
    "sample_flip_set": _sample_flip_set,
    "DecodeState.__init__": _state_init,
    "randomized_decode": _randomized_decode,
}


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def children(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            kids.setdefault(rec["parent"], []).append(rec)
    return kids


def self_time(rec: dict, kids: dict[int, list[dict]]) -> float:
    """Span duration minus the time its direct children cover."""
    return duration(rec) - sum(duration(k) for k in kids.get(rec["id"], ()))


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that are unclosed, lie outside their parent, or leave their
    parent's decode."""
    errors = []
    for rec in spans:
        if "end" not in rec or rec["end"] < rec["start"]:
            errors.append(f"span {rec['id']} ({rec['name']}) is not closed")
            continue
        if rec["parent"] is None:
            continue
        parent = spans[rec["parent"]]
        if not parent["start"] <= rec["start"] <= rec["end"] <= parent.get("end", -1.0):
            errors.append(f"span {rec['id']} ({rec['name']}) lies outside its parent")
        if parent["decode"] is not None and rec["decode"] != parent["decode"]:
            errors.append(f"span {rec['id']} ({rec['name']}) left decode {parent['decode']}")
    return errors
