"""Self-test of the benchmark harness, on tiny sizes; runs in seconds.

    python3 bench/selftest.py

It checks that count metrics repeat exactly on one seed, that tracing changes
no decoded word or counter, that spans nest, and that every workload's code
path runs end to end.
"""

from __future__ import annotations

import dataclasses
import unittest
import warnings

import run as bench
import spans
from run import tf

# n=800 keeps gamma*n above 1, so main_decode still calls hard_search.
TINY = {
    "det-light": dict(n=800, weights=(1, 2), setups=2, min_decodes=6, traced=4),
    "det-scale": dict(n=800, weights=(2,), setups=2, min_decodes=6, traced=3),
    "sweep-rand": dict(n=800, weights=(2, 3), setups=2, min_decodes=8, traced=2, sweep_trials=4),
}
COUNTS = [name for name, unit in bench.PER_LAYER_UNITS.items() if unit in ("count", "ratio", "B")]
_runs: dict[tuple[str, int], bench.Run] = {}


def tiny_run(name: str, seed: int = 5) -> bench.Run:
    if (name, seed) not in _runs:
        spec = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
        _runs[name, seed] = bench.run_workload(spec, seed, seconds=0.2, trace=True)
    return _runs[name, seed]


class BenchSelfTest(unittest.TestCase):
    def test_every_workload_runs_and_checks_out(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                run = tiny_run(name)
                self.assertTrue(run.correct, run.errors)
                self.assertGreaterEqual(run.attempted, 1)
                self.assertEqual(set(run.end_to_end), set(bench.END_TO_END_UNITS))
                self.assertEqual(set(run.layers), set(bench.PER_LAYER_UNITS))
                self.assertTrue(all(v > 0 for v in run.end_to_end.values()), run.end_to_end)
                self.assertTrue(run.info["design_claim"]["claim"])

    def test_count_metrics_repeat_on_one_seed(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                first = tiny_run(name).layers
                spec = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
                again = bench.run_workload(spec, 5, seconds=0.0, trace=True).layers
                self.assertEqual({k: first[k] for k in COUNTS}, {k: again[k] for k in COUNTS})

    def test_search_and_randomized_layers_are_seen(self):
        self.assertGreater(tiny_run("det-light").layers["decode_det.search_calls"], 0)
        rand = tiny_run("sweep-rand").layers
        self.assertGreater(rand["decode_rand.iterations"], 0)
        self.assertGreater(rand["decode_rand.phase_checks"], 0)
        self.assertGreater(rand["sweep.job_bytes"], 0)

    def test_spans_nest(self):
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                recs = tiny_run(name).tracer.spans
                self.assertTrue(recs)
                self.assertEqual(spans.nesting_errors(recs), [])

    def test_tracing_changes_no_decode(self):
        spec = dataclasses.replace(bench.WORKLOADS["det-light"], **TINY["det-light"])
        code, params = bench.set_up(spec, bench.ext_hamming(), spans.Tracer())
        inputs = [tf.corrupt(tf.BitVector.zeros(code.n), w, seed=w) for w in (1, 2, 3)]
        cfg = tf.RandDecodeConfig.for_params(params, seed=9)

        def decode_all():
            out = []
            for x in inputs:
                det, rand = tf.DecodeReport(), tf.RandDecodeReport()
                out.append((tf.main_decode(code, params, x, report=det), det.to_json_line()))
                word = tf.randomized_decode(code, params, cfg, x, report=rand)
                out.append((word, rand.iterations, rand.unsat_trajectory, rand.main.to_json_line()))
            return out

        def entry_points():
            return (tf.main_decode, tf.decode_rand.main_decode, tf.decode_det.hard_search,
                    tf.DecodeState.__init__, tf.sweep.randomized_decode)

        untraced = decode_all()
        originals = entry_points()
        tracer = spans.Tracer()
        with tracer.active():
            self.assertNotEqual(entry_points(), originals)
            traced = decode_all()
        self.assertEqual(entry_points(), originals)
        self.assertEqual(untraced, traced)
        self.assertEqual(sum(r["name"] == "randomized_decode" for r in tracer.spans), 3)

    def test_workload_weights_follow_the_radius(self):
        # det-light: r/3..r, det-scale: r, sweep-rand: 2r and 3r, r = floor(gamma*n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = {
                name: int(
                    tf.derive_params(bench.C, bench.D, bench.ALPHA, bench.DELTA, bench.D0, w.n).gamma
                    * w.n
                )
                for name, w in bench.WORKLOADS.items()
            }
        light = tuple(sorted({max(1, r["det-light"] * k // 3) for k in (1, 2, 3)}))
        self.assertEqual(bench.WORKLOADS["det-light"].weights, light)
        self.assertEqual(bench.WORKLOADS["det-scale"].weights, (r["det-scale"],))
        rand = (2 * r["sweep-rand"], 3 * r["sweep-rand"])
        self.assertEqual(bench.WORKLOADS["sweep-rand"].weights, rand)


if __name__ == "__main__":
    unittest.main()
