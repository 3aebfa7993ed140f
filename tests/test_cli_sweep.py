from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tannerflip as tf
from tannerflip.cli import main
from tannerflip.gf2 import BitVector
from tannerflip.sweep import (
    CSV_HEADER,
    ExperimentConfig,
    UsageError,
    derive_seed,
    parse_csv,
    run_sweep,
    worker_count,
)

from conftest import ext_hamming_inner

README = Path(__file__).resolve().parent.parent / "README.md"


def without_wall_ms(rows) -> list[dict]:
    """Rows minus the wall-clock column, which alone is not a function of seeds."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in rows]


@pytest.fixture()
def k32_bundle(tmp_path, k32_code):
    graph_path = tmp_path / "k32.bigraph"
    inner_path = tmp_path / "rep3.innercode"
    manifest = tmp_path / "k32.tanner"
    graph_path.write_text(k32_code.graph.to_text())
    inner_path.write_text(k32_code.inner.to_text())
    manifest.write_text(f"tanner v1 {graph_path.name} {inner_path.name}\n")
    return manifest


class TestSweep:
    @pytest.mark.parametrize("root", [0, 1, 7, 2**64 + 9, -1])
    def test_derive_seed_matches_hashlib_reference(self, root):
        # the seeds must not depend on which module supplies blake2b
        for parts in ((), (3,), (9, 0), (2, 31, -4)):
            data = b"".join(p.to_bytes(8, "little", signed=True) for p in parts)
            h = hashlib.blake2b(
                data, digest_size=8, key=(root & (2**64 - 1)).to_bytes(8, "little")
            )
            expected = int.from_bytes(h.digest(), "little") >> 1
            assert derive_seed(root, *parts) == expected

    def test_weight_zero_all_succeed(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(0,), trials=4, seed=1)
        report = run_sweep(k32_code, k32_params, config)
        assert report.success_rate() == 1.0
        assert len(report.rows) == 4

    def test_weight_one_all_patterns(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(1,), trials=12, seed=2)
        report = run_sweep(k32_code, k32_params, config)
        assert report.success_rate() == 1.0

    def test_full_flip_lands_on_other_codeword(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(3,), trials=3, seed=3)
        report = run_sweep(k32_code, k32_params, config)
        for row in report.rows:
            assert not row.success
            assert row.outcome == "wrong_codeword"
            assert row.dist_to_truth == 3  # the complementary codeword

    def test_csv_round_trip(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(0, 1), trials=3, seed=4)
        report = run_sweep(k32_code, k32_params, config)
        text = report.to_csv()
        assert text.splitlines()[0] == CSV_HEADER
        parsed = parse_csv(text)
        assert parsed.rows == report.rows

    @pytest.mark.parametrize(
        "text", ["", "weight,trial\n", CSV_HEADER.replace("v1", "v2") + "\n"]
    )
    def test_parse_csv_rejects_unknown_header(self, text):
        with pytest.raises(ValueError, match="missing or unknown sweep header"):
            parse_csv(text)

    def test_reproducible_up_to_timing(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(1,), trials=5, seed=5)
        a = run_sweep(k32_code, k32_params, config)
        b = run_sweep(k32_code, k32_params, config)
        assert without_wall_ms(a.rows) == without_wall_ms(b.rows)

    def test_parallel_matches_sequential(self, k32_code, k32_params, monkeypatch):
        config = ExperimentConfig(weights=(0, 1), trials=3, seed=6)
        seq = run_sweep(k32_code, k32_params, config)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("TANNER_THREADS", "2")
        par = run_sweep(k32_code, k32_params, config)
        assert without_wall_ms(seq.rows) == without_wall_ms(par.rows)

    def test_rows_count_search_nodes(self, big_code, big_params):
        config = ExperimentConfig(weights=(2,), trials=2, seed=8)
        report = run_sweep(big_code, big_params, config)
        assert all(row.success and row.nodes >= 1 for row in report.rows)
        assert parse_csv(report.to_csv()).rows == report.rows

    def test_no_generator_and_parallel_matches_sequential(self, big_params, monkeypatch):
        # a fresh code: the session's big_code may have computed its generator
        code = tf.TannerCode(tf.gen_random_biregular(12, 8, 2000, seed=1), ext_hamming_inner())
        config = ExperimentConfig(weights=(6, 9), trials=12, seed=10, decoder="rand")
        seq = run_sweep(code, big_params, config)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("TANNER_THREADS", "2")  # three chunks of 8 jobs
        par = run_sweep(code, big_params, config)
        assert len(seq.rows) == 24
        assert without_wall_ms(seq.rows) == without_wall_ms(par.rows)
        assert "generator" not in code.__dict__
        assert "global_h" not in code.__dict__

    def test_rand_decoder_rows(self, k32_code, k32_params):
        config = ExperimentConfig(weights=(1,), trials=6, seed=7, decoder="rand")
        report = run_sweep(k32_code, k32_params, config)
        assert all(row.outcome in ("ok", "abort") for row in report.rows)
        assert any(row.rand_iters >= 1 for row in report.rows)
        # some of these trials need 2-5 iterations, so a budget of 1 aborts
        config = ExperimentConfig(
            weights=(1,), trials=6, seed=7, decoder="rand", rand_max_iters=1
        )
        rows = run_sweep(k32_code, k32_params, config).rows
        failed = [r for r in rows if not r.success]
        assert failed
        assert all(r.outcome == tf.RandomizedAbort.outcome for r in failed)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(weights=(1,), trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(weights=(-1,), trials=1)
        with pytest.raises(ValueError):
            ExperimentConfig(weights=(1,), trials=1, decoder="magic")
        with pytest.raises(ValueError, match="only to decoder 'rand'"):
            ExperimentConfig(weights=(1,), trials=1, rand_max_iters=3)
        ExperimentConfig(weights=(1,), trials=1, decoder="rand", rand_max_iters=3)

    def test_decode_rejects_det_budget(self, k32_code, k32_params):
        # the dispatch holds the rule that ExperimentConfig applies
        x = BitVector.from_text("100")
        with pytest.raises(ValueError, match="only to decoder 'rand'"):
            tf.sweep.decode(k32_code, k32_params, "det", x, tf.RandDecodeReport(), max_iters=3)
        report = tf.RandDecodeReport()
        assert tf.sweep.decode(k32_code, k32_params, "det", x, report) == BitVector.zeros(3)
        with pytest.raises(ValueError, match="unknown decoder 'magic'"):
            tf.sweep.decode(k32_code, k32_params, "magic", x, tf.RandDecodeReport())


class TestWorkerCount:
    def test_unset_is_one(self):
        assert worker_count(None, 10) == 1

    def test_clamped_to_jobs(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert worker_count("2", 10) == 2
        assert worker_count("64", 3) == 3
        assert worker_count("1", 0) == 1

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (1, 1), (None, 1)])
    def test_clamped_to_cpu_count(self, monkeypatch, cpus, expected):
        # only the count is checked: no pool is started with such a value
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count("5000", 10**6) == expected
        assert worker_count("3", 10) == expected

    @pytest.mark.parametrize("value", ["", "0", "-1", "1.5", "two", " 2", "+2", "2_0", "\u0662"])
    def test_malformed_rejected(self, value):
        with pytest.raises(UsageError):
            worker_count(value, 10)


class TestCli:
    def test_params_matches_library(self, capsys):
        assert main(
            [
                "params", "--c", "2", "--d", "3", "--alpha", "0.3333",
                "--delta", "1", "--d0", "3", "--n", "3", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == 1
        assert payload["s0"] == 1
        assert payload["ell"] == 0
        assert payload["gamma"] == pytest.approx(2 * 0.3333 / 6)

    def test_gen_and_verify_expansion(self, tmp_path, capsys):
        out = tmp_path / "g.bigraph"
        assert main(
            ["gen-graph", "--c", "2", "--d", "3", "--n", "3", "--seed", "0",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["verify-expansion", "--graph", str(out), "--alpha", "0.3333",
             "--delta", "1", "--json"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        rc = main(
            ["verify-expansion", "--graph", str(out), "--alpha", "0.67",
             "--delta", "1", "--json"]
        )
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False and payload["witness"] == [0, 1]

    def test_decode_round_trip(self, k32_bundle, capsys):
        rc = main(
            ["decode", "--code", str(k32_bundle), "--word", "111",
             "--alpha", "0.3333", "--delta", "1"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "111"
        rc = main(
            ["decode", "--code", str(k32_bundle), "--word", "100",
             "--alpha", "0.3333", "--delta", "1", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["word"] == "000"
        assert payload["report"]["outcome"] == "codeword"
        assert payload["report"]["nodes"] == 0  # k32 runs no search round

    def test_decode_short_word_exit_3(self, k32_bundle, capsys):
        rc = main(
            ["decode", "--code", str(k32_bundle), "--word", "10",
             "--alpha", "0.3333", "--delta", "1"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: length mismatch: expected 3, got 2\n"

    @staticmethod
    def one_block_code(tmp_path) -> list[str]:
        """The --graph/--inner arguments of a single [8,4,4] constraint on
        n = 8: two errors there lie beyond the inner radius, so they send no
        vote and no decoder can remove them."""
        graph = tf.BipartiteGraph(1, 8, [[v // 8] for v in range(8)])
        inner = tf.InnerCode.from_parity_check(
            tf.BitMatrix.from_rows(
                [
                    [1, 1, 1, 1, 1, 1, 1, 1],
                    [0, 1, 0, 1, 0, 1, 0, 1],
                    [0, 0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 0, 1, 1, 1, 1],
                ]
            )
        )
        gp, ip = tmp_path / "b.bigraph", tmp_path / "b.innercode"
        gp.write_text(graph.to_text())
        ip.write_text(inner.to_text())
        return ["--graph", str(gp), "--inner", str(ip)]

    def test_decode_failure_exit_code(self, tmp_path):
        rc = main(
            ["decode", *self.one_block_code(tmp_path),
             "--word", "11000000", "--alpha", "0.5", "--delta", "1"]
        )
        assert rc == 4

    def test_decode_rand_failure_after_hand_off(self, tmp_path, capsys):
        # the one failing constraint is within the hand-off threshold, so the
        # state is handed off after iteration 1 and the deterministic phase
        # fails; the outcome is that phase's, as `decode` reports it
        argv = [*self.one_block_code(tmp_path), "--word", "11000000",
                "--alpha", "0.5", "--delta", "1", "--json"]
        assert main(["decode", *argv]) == 4
        decoded = json.loads(capsys.readouterr().out)
        assert main(["decode-rand", *argv, "--seed", "1"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["unsat_trajectory"] == [1, 1]
        assert payload["iterations"] == 1
        assert payload["outcome"] == decoded["outcome"] == "no_acceptable_branch"
        assert payload["report"] == decoded["report"]

    def test_decode_rand_cli(self, k32_bundle, k32_code, capsys):
        argv = ["decode-rand", "--code", str(k32_bundle), "--alpha", "0.3333",
                "--delta", "1", "--json"]
        rc = main(argv + ["--word", "111", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["word"] == "111"
        assert payload["unsat_trajectory"][0] == 0
        assert payload["report"]["outcome"] == "codeword"
        assert payload["report"]["checks"] >= k32_code.graph.n_right
        # vertex 0 of "100" is kept with probability 1/2 in iteration 1
        seed = next(s for s in range(100) if tf.iteration_draw(s, 1)(0) >= 0.5)
        rc = main(argv + ["--word", "100", "--seed", str(seed), "--max-iters", "1"])
        assert rc == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "abort"
        assert payload["iterations"] == 1
        assert payload["report"]["outcome"] == ""
        assert payload["report"]["checks"] >= k32_code.graph.n_right

    def test_encode_and_mindist(self, k32_bundle, capsys):
        assert main(["encode", "--code", str(k32_bundle), "--message", "1"]) == 0
        assert capsys.readouterr().out.strip() == "111"
        assert main(["mindist", "--code", str(k32_bundle), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["min_distance"] == 3

    def test_corrupt_deterministic(self, capsys):
        argv = ["corrupt", "--word", "000000", "--weight", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert sum(ch == "1" for ch in first.strip()) == 2

    def test_build_code_and_lowerbound(self, tmp_path, capsys):
        gout = tmp_path / "lb.bigraph"
        rc = main(
            ["lowerbound-graph", "--d", "4", "--d0", "2", "--n", "20",
             "--seed", "0", "--out", str(gout), "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"] == 3
        inner_path = tmp_path / "par4.innercode"
        inner_path.write_text(tf.parity_check_code(4).to_text())
        manifest = tmp_path / "lb.tanner"
        rc = main(
            ["build-code", "--graph", str(gout), "--inner", str(inner_path),
             "--out", str(manifest)]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["mindist", "--code", str(manifest)]) == 0
        assert int(capsys.readouterr().out.strip()) <= 2

    def test_build_code_manifest_in_subdirectory(self, tmp_path, monkeypatch, k32_code, capsys):
        monkeypatch.chdir(tmp_path)
        Path("k32.bigraph").write_text(k32_code.graph.to_text())
        Path("rep3.innercode").write_text(k32_code.inner.to_text())
        Path("sub").mkdir()
        rc = main(
            ["build-code", "--graph", "k32.bigraph", "--inner", "rep3.innercode",
             "--out", "sub/k.tanner"]
        )
        assert rc == 0
        assert Path("sub/k.tanner").read_text() == "tanner v1 ../k32.bigraph ../rep3.innercode\n"
        capsys.readouterr()
        rc = main(
            ["decode", "--code", "sub/k.tanner", "--word", "100",
             "--alpha", "0.3333", "--delta", "1"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "000"

    def test_build_code_whitespace_path_exit_3(self, tmp_path, monkeypatch, k32_code, capsys):
        monkeypatch.chdir(tmp_path)
        Path("my graph.bigraph").write_text(k32_code.graph.to_text())
        Path("rep3.innercode").write_text(k32_code.inner.to_text())
        rc = main(
            ["build-code", "--graph", "my graph.bigraph", "--inner", "rep3.innercode",
             "--out", "k.tanner"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "whitespace" in err
        assert not Path("k.tanner").exists()

    def test_sweep_cli(self, k32_bundle, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(
            ["sweep", "--code", str(k32_bundle), "--alpha", "0.3333",
             "--delta", "1", "--weights", "0,1", "--trials", "2",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        assert "success_rate=1.0000" in capsys.readouterr().out
        assert parse_csv(out.read_text()).success_rate() == 1.0

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_threads_exit_2(self, k32_bundle, monkeypatch, capsys, value):
        monkeypatch.setenv("TANNER_THREADS", value)
        rc = main(
            ["sweep", "--code", str(k32_bundle), "--alpha", "0.3333",
             "--delta", "1", "--weights", "1", "--trials", "2"]
        )
        assert rc == 2
        assert "TANNER_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["0,4", "9223372036854775808"])
    def test_sweep_weight_above_n_exit_3(self, k32_bundle, monkeypatch, capsys, weights):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(tf.sweep, "run_trial", no_trial)
        rc = main(
            ["sweep", "--code", str(k32_bundle), "--alpha", "0.3333",
             "--delta", "1", "--weights", weights, "--trials", "2"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: weights must be at most n = 3\n"

    @pytest.mark.parametrize("max_iters", ["0", "3"])
    def test_det_sweep_rejects_max_iters_exit_3(self, k32_bundle, capsys, max_iters):
        rc = main(
            ["sweep", "--code", str(k32_bundle), "--alpha", "0.3333",
             "--delta", "1", "--weights", "1", "--trials", "2",
             "--decoder", "det", "--max-iters", max_iters]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: max_iters applies only to decoder 'rand'\n"
        )

    def test_sweep_json_has_nodes(self, k32_bundle, capsys):
        rc = main(
            ["sweep", "--code", str(k32_bundle), "--alpha", "0.3333",
             "--delta", "1", "--weights", "1", "--trials", "2", "--json"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["nodes"] for row in rows] == [0, 0]

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_validation_error_exit_3(self, capsys):
        rc = main(
            ["gen-graph", "--c", "2", "--d", "3", "--n", "4", "--seed", "0",
             "--out", "/tmp/never.bigraph"]
        )
        assert rc == 3
        capsys.readouterr()
        rc = main(
            ["gen-graph", "--c", "0", "--d", "3", "--n", "3", "--seed", "0",
             "--out", "/tmp/never.bigraph"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: degrees must be positive\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's RLIMIT_AS")
    def test_out_of_memory_exit_3(self, tmp_path):
        # the child caps its own address space at 1 GiB, far below the
        # stubs of 8e9 vertices and a sequential sweep's list of 1e9 jobs:
        # one stderr line and exit 3 each, no traceback
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from tannerflip.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "huge.bigraph"
        env = dict(os.environ)
        env.pop("TANNER_THREADS", None)
        src = str(Path(tf.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        huge_graph = ["gen-graph", "--c", "12", "--d", "8", "--n", "8000000000",
                      "--out", str(out)]
        huge_sweep = ["sweep", *self.one_block_code(tmp_path), "--alpha", "0.5",
                      "--delta", "1", "--weights", "1", "--trials", "1000000000"]
        for argv in (huge_graph, huge_sweep):
            done = subprocess.run(
                [sys.executable, "-c", probe, *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (done.returncode, done.stderr) == (3, "error: out of memory\n"), argv[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "0"), ("--n", "-5"), ("--c", "0"), ("--d", "0"),
         ("--alpha", "0"), ("--alpha", "1.5"), ("--delta", "0"), ("--delta", "1.5")],
    )
    def test_params_non_positive_size_exit_3(self, capsys, flag, value):
        # sizes below 1, and the fractions alpha and delta outside (0, 1]
        argv = ["params", "--c", "2", "--d", "3", "--alpha", "0.3", "--delta", "1",
                "--d0", "3", "--n", "3"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 3
        name = flag[2:]
        bound = "in (0, 1]" if name in ("alpha", "delta") else f"at least 1, got {value}"
        assert capsys.readouterr().err == f"error: {name} must be {bound}\n"

    @pytest.mark.parametrize("delta, d0", [("0.50001", "7"), ("0.33334", "10")])
    def test_params_tiny_eps3_exit_3(self, capsys, delta, d0):
        argv = ["params", "--c", "12", "--d", "8", "--alpha", "0.02", "--delta", delta,
                "--d0", d0, "--n", "2000"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: eps3 = ") and err.count("\n") == 1

    def test_zero_degree_graph_exit_3(self, tmp_path, capsys):
        graph = tmp_path / "g.bigraph"
        graph.write_text("1 0 1 0\n0\n")
        inner = tmp_path / "rep3.innercode"
        inner.write_text(tf.repetition_code(3).to_text())
        rc = main(
            ["build-code", "--graph", str(graph), "--inner", str(inner),
             "--out", str(tmp_path / "t.tanner")]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: degrees must be at least 1, got c=1, d=0\n"

    def test_degree_sum_not_divisible_exit_3(self, tmp_path, capsys):
        graph = tmp_path / "g.bigraph"
        graph.write_text("3 2 1 1\n0 1 2\n")
        rc = main(["verify-expansion", "--graph", str(graph), "--alpha", "0.3", "--delta", "1"])
        assert rc == 3
        assert capsys.readouterr().err == "error: left degree sum not divisible by right degree\n"

    def test_wrong_right_degree_exit_3(self, tmp_path, capsys):
        # the left side is well formed, but right vertex 0 has three neighbors
        graph = tmp_path / "g.bigraph"
        graph.write_text("1 2 4 2\n0\n0\n0\n1\n")
        rc = main(["verify-expansion", "--graph", str(graph), "--alpha", "0.3", "--delta", "1"])
        assert rc == 3
        assert capsys.readouterr().err == "error: right vertex 0 has degree 3, expected 2\n"

    def test_lowerbound_without_sub_expander_exit_3(self, tmp_path, capsys):
        out = tmp_path / "lb.bigraph"
        rc = main(["lowerbound-graph", "--d", "8", "--d0", "2", "--n", "20", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no verifiable sub-expander found") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_code_args_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mindist"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "files", [["--graph", "other.bigraph"], ["--inner", "rep3.innercode"],
                  ["--graph", "other.bigraph", "--inner", "rep3.innercode"]]
    )
    def test_code_with_graph_or_inner_usage(self, k32_bundle, capsys, files):
        # a manifest plus separate files names two codes: neither is picked
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--code", str(k32_bundle), *files, "--word", "100",
                  "--alpha", "0.3333", "--delta", "1"])
        assert exc.value.code == 2
        assert "provide --code or both --graph and --inner" in capsys.readouterr().err


def test_word_file_input(tmp_path, k32_bundle, capsys):
    wf = tmp_path / "word.txt"
    wf.write_text("100\n")
    rc = main(
        ["decode", "--code", str(k32_bundle), "--word-file", str(wf),
         "--alpha", "0.3333", "--delta", "1"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "000"


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block exits 0, so the README cannot
    name a subcommand or flag that no longer exists."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) >= 10 and all(argv[0] == "tannerflip" for argv in commands)
    monkeypatch.chdir(tmp_path)
    # the block reads rep3.innercode but does not write it
    (tmp_path / "rep3.innercode").write_text(tf.repetition_code(3).to_text())
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
