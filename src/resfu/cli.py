"""Command-line front end.

Subcommands: gen-weights, upsample, visualize, selfcheck, bench.  Exit
codes are a stable contract: 0 success, 1 a correctness check failed
(including NaN or Inf in an input), 2 file/parse problems (the failing path
is named on stderr), 3 shape or ratio mismatches, 4 out of memory.
`upsample` streams run_pipeline's output, also the inner-product baseline's,
into --out band by band, so it is never held whole, and a failed run leaves
any earlier --out as it was.
Every written file's full size is reserved before it is filled, so a disk
too full for --out exits 2, naming --out, before any stage runs or any
dump is written.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from .bench import EQUIVALENCE_TOL, CheckFailed, run_bench
from .ops import ChannelGroupMismatch, ShapeMismatch, bilinear_resize, nearest_resize
from .params_io import load_params, save_params
from .selfcheck import run_selfcheck
from .tensor import TensorFormatError, load_tensor, save_tensor
from .upsampler import (
    NonFiniteInput,
    RatioMismatch,
    RowNotNormalized,
    UpsampleConfig,
    check_guide,
    generate_params,
    run_pipeline,
)
from .visualize import channel_rgb, pca_rgb, save_ppm


# Intermediates that `upsample --dump-dir` writes, as <name>.rsft.
DUMPED = ("q", "k_up", "q_gf", "s_s", "q_gs", "s_d", "kernels")


def _load_checked(loader, path):
    """loader(path), with a format error's message prefixed by the path."""
    try:
        return loader(path)
    except TensorFormatError as err:
        raise type(err)(f"{path}: {err}") from err


def _cmd_gen_weights(args) -> int:
    params = generate_params(args.cin, args.cguide, seed=args.seed)
    save_params(args.out, params)
    print(f"wrote {args.out}")
    return 0


def _cmd_upsample(args) -> int:
    # fail before any work where writing --out at the end would fail
    if not args.out or os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
        raise OSError(f"--out {args.out!r} is empty or a directory, or its directory does not exist")
    if args.dump_dir is not None and os.path.realpath(args.out) in {
            os.path.realpath(os.path.join(args.dump_dir, f"{name}.rsft")) for name in DUMPED}:
        raise OSError(f"--out {args.out} is a file that --dump-dir {args.dump_dir} writes")
    x = _load_checked(load_tensor, args.input)
    y = _load_checked(load_tensor, args.guide)
    params = _load_checked(load_params, args.weights)
    cfg = UpsampleConfig(ratio=args.ratio)
    if args.kernel is not None and args.kernel != params.kernel:
        raise ShapeMismatch(f"--kernel {args.kernel}, but {args.weights} holds kernel {params.kernel}")

    if args.baseline in ("bilinear", "nearest"):
        check_guide(x, y, cfg.ratio)
        resize = bilinear_resize if args.baseline == "bilinear" else nearest_resize
        fill = lambda write: write(resize(x, y.height, y.width).data)  # noqa: E731
    else:
        sink = {}
        if args.dump_dir is not None:
            try:
                os.makedirs(args.dump_dir, exist_ok=True)
            except OSError as err:
                raise OSError(f"--dump-dir {args.dump_dir!r} cannot be made a directory: {err.strerror}") from None
            sink = {name: partial(save_tensor, os.path.join(args.dump_dir, f"{name}.rsft")) for name in DUMPED}
        fill = lambda write: run_pipeline(x, y, params, cfg, fused=args.fused == "true",  # noqa: E731
                                          similarity=args.baseline or "pcdc", sink=sink, rows=write)
    save_tensor(args.out, (y.height, y.width, x.channels), fill)
    print(f"wrote {args.out} ({y.height}x{y.width}x{x.channels})")
    return 0


def _cmd_visualize(args) -> int:
    fmap = _load_checked(load_tensor, args.input)
    if not np.isfinite(fmap.data).all():  # no PCA or min-max scaling of them is defined
        raise NonFiniteInput(f"{args.input} holds NaN or infinite values")
    rgb = pca_rgb(fmap) if args.mode == "pca" else channel_rgb(fmap, args.channel)
    save_ppm(args.out, rgb)
    print(f"wrote {args.out}")
    return 0


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck(args.seed, args.weights)
    for res in results:
        line = (
            f"{'PASS' if res.passed else 'FAIL'} {res.name:34s} "
            f"max_err={res.max_error:.3e} tol={res.tolerance:g}"
        )
        if res.detail:
            line += f"  [{res.detail}]"
        print(line)
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_bench(args) -> int:
    report = run_bench(args.h, args.w, args.c, args.ratio, args.iters)
    print(f"fused vs naive: max rel err {report.equivalence_error:.3e} (tol {EQUIVALENCE_TOL:g})")
    for row in report.rows:
        print(f"{row.name:18s} {row.mean_seconds * 1e3:10.3f} ms/iter  (iters={row.iters})")
    for label, peak in (("naive", report.naive_peak), ("fused", report.fused_peak)):
        print(f"tracemalloc peak ({label}): {peak}B")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfu", description="Similarity-based feature upsampling toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-weights", help="synthesize a deterministic weight bundle")
    gen.add_argument("--cin", type=int, required=True, help="value/input channel count")
    gen.add_argument("--cguide", type=int, required=True, help="guide channel count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .rsfw path")
    gen.set_defaults(handler=_cmd_gen_weights)

    ups = sub.add_parser("upsample", help="upsample a feature map under a guide")
    ups.add_argument("--input", required=True, help="low-resolution .rsft")
    ups.add_argument("--guide", required=True, help="high-resolution guide .rsft")
    ups.add_argument("--weights", required=True, help=".rsfw bundle")
    ups.add_argument("--ratio", type=int, required=True)
    ups.add_argument("--kernel", type=int, help="must match the bundle's kernel size (default: the bundle's)")
    ups.add_argument("--baseline", choices=["bilinear", "nearest", "innerprod"], default=None,
                     help="replace the similarity pipeline with a baseline")
    ups.add_argument("--fused", choices=["true", "false"], default="true")
    ups.add_argument("--dump-dir", default=None,
                     help="also write pipeline intermediates here, each as its stage finishes "
                          "(--baseline innerprod writes q, k_up and kernels; the resize baselines "
                          "write none); if a later stage fails, the maps of the finished stages "
                          "stay on disk and no output is written")
    ups.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored: resfu runs on the calling thread")
    ups.add_argument("--out", required=True,
                     help="output .rsft path; its full size is reserved before any stage runs "
                          "(a full disk exits 2 at once), all but the resize baselines stream "
                          "into it band by band, and the file appears only once complete")
    ups.set_defaults(handler=_cmd_upsample)

    vis = sub.add_parser("visualize", help="render a feature map to a PPM image")
    vis.add_argument("--input", required=True, help=".rsft to render")
    vis.add_argument("--out", required=True, help="output .ppm path")
    vis.add_argument("--mode", choices=["pca", "channel"], default="pca")
    vis.add_argument("--channel", type=int, default=0, help="channel index for --mode channel")
    vis.set_defaults(handler=_cmd_visualize)

    chk = sub.add_parser("selfcheck", help="run the seeded correctness suite")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--weights", default=None, help="also validate this .rsfw bundle")
    chk.set_defaults(handler=_cmd_selfcheck)

    ben = sub.add_parser("bench", help="time fused/naive and decomposed/direct kernels")
    ben.add_argument("--h", type=int, required=True)
    ben.add_argument("--w", type=int, required=True)
    ben.add_argument("--c", type=int, required=True)
    ben.add_argument("--ratio", type=int, required=True)
    ben.add_argument("--iters", type=int, required=True)
    ben.set_defaults(handler=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and flag errors itself
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (TensorFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ShapeMismatch, ChannelGroupMismatch, RatioMismatch) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (CheckFailed, RowNotNormalized, NonFiniteInput) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
