"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 validation failure, 4 decode failure.
A size too large for the memory the process may use is a validation failure:
its MemoryError ends in one stderr line and exit 3, not a traceback.
Every subcommand takes --json for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .gf2 import BitVector
from .graphs import (
    BipartiteGraph,
    build_lowerbound_graph,
    gen_random_biregular,
    verify_expansion,
)
from .decode_det import DecodeFailure, derive_params
from .decode_rand import RandDecodeReport
from .sweep import DECODERS, DET, RAND, ExperimentConfig, UsageError, decode, run_sweep
from .tanner import TannerCode, corrupt, load_bundle, load_code, write_bundle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_DECODE = 4


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def _read_word(args) -> BitVector:
    if args.word is not None:
        return BitVector.from_text(args.word)
    return BitVector.from_text(Path(args.word_file).read_text())


def _load_code(args) -> TannerCode:
    if args.code is not None:
        return load_bundle(args.code)
    return load_code(args.graph, args.inner)


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", help="tanner v1 manifest path")
    p.add_argument("--graph", help="bigraph v1 path (with --inner)")
    p.add_argument("--inner", help="innercode v1 path (with --graph)")


def _add_word_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="0/1 string")
    group.add_argument("--word-file", help="file holding a 0/1 string")


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)


def _params_for(code: TannerCode, args):
    return derive_params(
        c=code.graph.c,
        d=code.graph.d,
        alpha=args.alpha,
        delta=args.delta,
        d0=code.inner.d0,
        n=code.n,
    )


def cmd_gen_graph(args) -> int:
    g = gen_random_biregular(args.c, args.d, args.n, args.seed)
    Path(args.out).write_text(g.to_text())
    _emit(
        args,
        {"n_left": g.n_left, "n_right": g.n_right, "out": args.out},
        f"wrote ({g.c},{g.d})-biregular graph on {g.n_left}+{g.n_right} vertices to {args.out}",
    )
    return EXIT_OK


def cmd_verify_expansion(args) -> int:
    g = BipartiteGraph.from_text(Path(args.graph).read_text())
    report = verify_expansion(g, args.alpha, args.delta)
    payload = {
        "verified": report.verified,
        "witness": list(report.witness) if report.witness else None,
        "subsets_checked": report.subsets_checked,
    }
    if report.verified:
        _emit(args, payload, f"verified=true subsets_checked={report.subsets_checked}")
        return EXIT_OK
    _emit(args, payload, f"verified=false witness={list(report.witness)}")
    return EXIT_VALIDATION


def cmd_lowerbound_graph(args) -> int:
    g, c, alpha = build_lowerbound_graph(args.d, args.d0, args.n, args.seed)
    Path(args.out).write_text(g.to_text())
    _emit(
        args,
        {"c": c, "alpha": alpha, "n_left": g.n_left, "n_right": g.n_right, "out": args.out},
        f"wrote lower-bound graph (c={c}, alpha={alpha}) to {args.out}",
    )
    return EXIT_OK


def cmd_build_code(args) -> int:
    load_code(args.graph, args.inner)  # degree compatibility check
    base = Path(args.out).parent  # load_bundle resolves paths against it
    write_bundle(
        args.out, os.path.relpath(args.graph, base), os.path.relpath(args.inner, base)
    )
    _emit(args, {"out": args.out}, f"wrote manifest to {args.out}")
    return EXIT_OK


def cmd_mindist(args) -> int:
    code = _load_code(args)
    dist = code.min_distance_bruteforce()
    _emit(args, {"min_distance": dist, "dim": code.dim}, str(dist))
    return EXIT_OK


def cmd_encode(args) -> int:
    code = _load_code(args)
    msg = BitVector.from_text(args.message)
    cw = code.encode(msg)
    _emit(args, {"codeword": cw.to_text()}, cw.to_text())
    return EXIT_OK


def cmd_corrupt(args) -> int:
    word = _read_word(args)
    out = corrupt(word, args.weight, args.seed)
    _emit(args, {"word": out.to_text()}, out.to_text())
    return EXIT_OK


def cmd_decode(args) -> int:
    code = _load_code(args)
    params = _params_for(code, args)
    word = _read_word(args)
    report = RandDecodeReport()
    try:
        result = decode(
            code, params, args.decoder, word, report,
            seed=args.seed, max_iters=args.max_iters,
        )
    except DecodeFailure as exc:
        payload = {"outcome": exc.outcome, "error": str(exc)}
        text, status = f"decode failed: {exc}", EXIT_DECODE
    else:
        payload = {"word": result.to_text()}
        text, status = result.to_text(), EXIT_OK
    if report.unsat_trajectory:  # only a randomized decode records one
        payload["iterations"] = report.iterations
        payload["unsat_trajectory"] = report.unsat_trajectory
    payload["report"] = report.main.to_dict()
    _emit(args, payload, text)
    return status


def cmd_params(args) -> int:
    params = derive_params(
        c=args.c, d=args.d, alpha=args.alpha, delta=args.delta, d0=args.d0, n=args.n
    )
    names = ("t", "eps0", "eps1", "eps2", "eps3", "eps4", "gamma", "s0", "ell",
             "strict_product")
    payload = {name: getattr(params, name) for name in names}
    text = (
        f"t={params.t} gamma={params.gamma:.6g} s0={params.s0} ell={params.ell}\n"
        f"eps0={params.eps0:.6g} eps1={params.eps1:.6g} eps2={params.eps2:.6g} "
        f"eps3={params.eps3:.6g} eps4={params.eps4:.6g}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = ExperimentConfig(
        weights=tuple(int(w) for w in args.weights.split(",")),
        trials=args.trials,
        decoder=args.decoder,
        seed=args.seed,
        rand_max_iters=args.max_iters,
    )
    code = _load_code(args)
    params = _params_for(code, args)
    report = run_sweep(code, params, config)
    if args.out:
        Path(args.out).write_text(report.to_csv())
    if args.json:
        print(report.to_json())
    else:
        print(f"success_rate={report.success_rate():.4f} rows={len(report.rows)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tannerflip")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a random biregular graph")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("verify-expansion", help="exhaustively verify expansion")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_verify_expansion)

    p = sub.add_parser("lowerbound-graph", help="build the small-distance construction")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lowerbound_graph)

    p = sub.add_parser("build-code", help="write a tanner v1 manifest")
    p.add_argument("--graph", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("mindist", help="brute-force minimum distance")
    _add_code_args(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("encode", help="encode a message")
    _add_code_args(p)
    p.add_argument("--message", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("corrupt", help="flip a seeded random subset")
    _add_word_args(p)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="deterministic decode")
    _add_code_args(p)
    _add_word_args(p)
    _add_param_args(p)
    p.set_defaults(func=cmd_decode, decoder=DET, seed=0, max_iters=None)

    p = sub.add_parser("decode-rand", help="randomized decode")
    _add_code_args(p)
    _add_word_args(p)
    _add_param_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.set_defaults(func=cmd_decode, decoder=RAND)

    p = sub.add_parser("params", help="derive the decoding schedule")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("sweep", help="seeded decode sweep")
    _add_code_args(p)
    _add_param_args(p)
    p.add_argument("--weights", required=True, help="comma-separated error weights")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--decoder", choices=DECODERS, default=DET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    for p in sub.choices.values():  # added last, so usage lines keep their order
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "code" in vars(args):  # a command that reads a code, from one source
        files = (args.graph is not None, args.inner is not None)
        if files != ((False, False) if args.code is not None else (True, True)):
            parser.error("provide --code or both --graph and --inner")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
