"""Measures resfu end to end on fixed workloads and checks every output.

A run sets its workload up several times (inputs and weights made from the
seed, then one warm-up call), measures the peak traced allocation of one
untimed call, checks the numerics once against the naive-apply path, and
then times upsample calls for the requested number of seconds, with a
fixed NumPy probe after each call (``SpeedProbe``).  With tracing on, half
of the time is spent on untraced calls and half on calls through the span
wrappers of ``spans.py``; the traced run reports the per-stage metrics and
the tracing overhead.

The benchmark drives resfu only through ``resfu_upsample``,
``run_pipeline`` and ``cli.main``; weights come from ``gen-weights``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import resfu
from resfu import FeatureMap, UpsampleConfig, cli, load_params, load_tensor, save_tensor
from resfu.oracle import max_rel_error
from spans import MIB, Tracer, per_layer_metrics, returned_arrays

ROOT = Path(__file__).resolve().parent.parent
SCRATCH_PREFIX = ".perfbench_tmp_"  # + pid; removed when the run ends
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
ROW_SUM_TOL = 1e-6
EQUIVALENCE_TOL = 1e-5  # the repo's fused/naive and oracle tolerance
FINGERPRINT_SAMPLES = 256
PROBE_RUNS = 3
PROBE_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    side: int  # input is side x side x channels; the guide is ratio times larger
    channels: int
    guide_channels: int
    ratio: int
    via_cli: bool

    @property
    def out_shape(self) -> tuple[int, int, int]:
        return (self.side * self.ratio, self.side * self.ratio, self.channels)


# Why each workload exists is recorded in BENCHMARK.json.  ratio4_512 is
# run by hand only: a run fits two to four of its 7 s calls, its run medians
# on a shared 2-core VM spread by 16-28 %, and with it the benchmark's runs
# would not fit their time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ratio4_256", side=64, channels=32, guide_channels=4, ratio=4, via_cli=False),
        Workload("ratio4_512", side=128, channels=32, guide_channels=4, ratio=4, via_cli=False),
        Workload("cli_dump_c384_r8", side=32, channels=384, guide_channels=3, ratio=8, via_cli=True),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at 1/8 of the side, for tests that finish in seconds."""
    return replace(workload, side=max(4, workload.side // 8))


def fingerprint(output: np.ndarray) -> dict:
    """A compact summary of an output: fixed samples and per-channel means."""
    flat = output.reshape(-1).astype(np.float64)
    picks = np.linspace(0, flat.size - 1, FINGERPRINT_SAMPLES).astype(np.int64)
    return {
        "shape": list(output.shape),
        "samples": flat[picks].tolist(),
        "channel_means": output.astype(np.float64).mean(axis=(0, 1)).tolist(),
    }


def fingerprint_problem(output: np.ndarray, expected: dict) -> str | None:
    got = fingerprint(output)
    if got["shape"] != expected["shape"]:
        return f"shape {got['shape']} differs from the reference {expected['shape']}"
    for key in ("samples", "channel_means"):
        err = max_rel_error(got[key], expected[key])
        if not err <= EQUIVALENCE_TOL:
            return f"reference fingerprint {key} off by {err:.3g} > {EQUIVALENCE_TOL:g}"
    return None


def output_problem(output: np.ndarray, shape, reference: bytes | None) -> str | None:
    """Why an output is wrong, or None: shape, finiteness, bytes of the first call."""
    if output.shape != shape:
        return f"output shape {output.shape}, expected {shape}"
    if not np.isfinite(output).all():
        return "output has non-finite values"
    if reference is not None and output.tobytes() != reference:
        return "output bytes differ from the first call of the run"
    return None


def _quiet_cli(argv: list[str]) -> int:
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Case:
    """One set-up of a workload: its inputs and weights, and one upsample call."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        side, big = workload.side, workload.side * workload.ratio
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((side, side, workload.channels), dtype=np.float32)
        guide = rng.random((big, big, workload.guide_channels), dtype=np.float32)
        weights = workdir / "w.rsfw"
        rc = _quiet_cli(["gen-weights", "--cin", str(workload.channels), "--cguide",
                         str(workload.guide_channels), "--seed", str(seed), "--out", str(weights)])
        if rc != 0:
            raise RuntimeError(f"gen-weights exited with {rc}")
        self.cfg = UpsampleConfig(ratio=workload.ratio)
        if workload.via_cli:
            save_tensor(workdir / "x.rsft", FeatureMap(x))
            save_tensor(workdir / "y.rsft", FeatureMap(guide))
            self.cli_args = ["upsample", "--input", str(workdir / "x.rsft"), "--guide", str(workdir / "y.rsft"),
                             "--weights", str(weights), "--ratio", str(workload.ratio)]
        else:
            self.x, self.y = FeatureMap(x), FeatureMap(guide)
            self.params = load_params(weights)

    def call(self):
        """The measured call; its result goes to `output`."""
        if self.workload.via_cli:
            return _quiet_cli(self.cli_args + ["--dump-dir", str(self.workdir / "dump"),
                                               "--out", str(self.workdir / "out.rsft")])
        return resfu.resfu_upsample(self.x, self.y, self.params, self.cfg, fused=True, threads=1)

    def output(self, result) -> np.ndarray:
        if self.workload.via_cli:
            if result != 0:
                raise RuntimeError(f"cli upsample exited with {result}")
            return load_tensor(self.workdir / "out.rsft").data
        return result.data

    def naive_pass(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Kernels and output of the naive-apply path, and the computed size
        of the largest map the pipeline returns."""
        if self.workload.via_cli:
            dump, out = self.workdir / "naive_dump", self.workdir / "naive_out.rsft"
            rc = _quiet_cli(self.cli_args + ["--fused", "false", "--dump-dir", str(dump), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"cli upsample --fused false exited with {rc}")
            maps = {path.stem: load_tensor(path).data for path in dump.glob("*.rsft")}
            output = load_tensor(out).data
            return maps["kernels"], output, max(m.nbytes for m in [*maps.values(), output])
        result = resfu.run_pipeline(self.x, self.y, self.params, self.cfg, fused=False, threads=1)
        largest = max(array.nbytes for array in returned_arrays(result))
        return result.kernels.data, result.output.data, largest


@dataclass
class RunResult:
    workload: Workload
    setup_s: float = 0.0
    samples_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    timed_attempted: int = 0
    timed_failed: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_bytes: int = 0
    largest_bytes: int = 0
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    def upsample_ms(self) -> float | None:
        return statistics.median(self.samples_ms) if self.samples_ms else None

    def upsample_rel(self) -> float | None:
        """Median call time over the median probe time of the same run."""
        return self.upsample_ms() / statistics.median(self.probe_ms) if self.samples_ms else None

    def metrics(self, trace: bool) -> dict[str, dict]:
        if trace:
            values = self.per_layer
        else:
            values = {
                "upsample_rel": (self.upsample_rel(), "x"),
                "peak_mib": (self.peak_bytes / MIB, "MiB"),
                "setup_s": (self.setup_s, "s"),
            }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


class SpeedProbe:
    """A fixed NumPy workload, run between the timed calls.

    On a shared 2-core Xeon VM the machine's speed drifts by 20-30 % over a
    minute or two, which a 30 s run cannot average out: over ten seeds the
    run medians of upsample wall time spread by 10-19 % (quartile distance
    over median).  The probe slows and speeds up with the machine, and the
    ratio of the two medians spread by 3-9 % in the same kind of runs.  Like
    the pipeline, it allocates fresh large arrays, streams them through
    memory and runs small BLAS matmuls.  It calls no resfu code, so a change
    to resfu moves only the numerator.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._large = rng.random(4 << 20)  # 32 MiB of float64
        self._small = rng.random(1 << 20)  # 8 MiB
        self._matrix = rng.random((200, 200))

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            scaled = self._large * 2.0
            del scaled
        for _ in range(4):
            scaled = self._small * 2.0
            del scaled
        for _ in range(10):
            self._matrix @ self._matrix
        return (time.perf_counter() - start) * 1e3

    def after(self, call_ms: float) -> list[float]:
        """At least PROBE_RUNS probe times, together at least PROBE_SHARE of the call's."""
        runs = []
        while len(runs) < PROBE_RUNS or sum(runs) < PROBE_SHARE * call_ms:
            runs.append(self())
        return runs


class Runner:
    """Counts every checked call of one run; only passing calls are timed."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.result = RunResult(workload)
        self.reference: bytes | None = None
        self.reference_output: np.ndarray | None = None
        self.probe = SpeedProbe()

    def fail(self, message: str) -> None:
        self.result.failed += 1
        print(f"{self.workload.name}: call failed: {message}", file=sys.stderr)

    def checked(self, case: Case, call_result) -> bool:
        """Counts one call and reports whether its output passed."""
        self.result.attempted += 1
        try:
            output = case.output(call_result)
        except Exception:  # a broken call must be counted, not end the run
            self.fail(traceback.format_exc())
            return False
        problem = output_problem(output, self.workload.out_shape, self.reference)
        if problem:
            self.fail(problem)
            return False
        if self.reference is None:
            self.reference, self.reference_output = output.tobytes(), output.copy()
        return True

    def guarded_call(self, case: Case):
        """The call, or None if it raised; a raise is counted here, and
        `checked` counts every call that returned."""
        try:
            return case.call()
        except Exception:  # same boundary as `checked`: count it and go on
            self.result.attempted += 1
            self.fail(traceback.format_exc())
            return None

    def set_up(self) -> Case:
        """Builds the case SETUP_REPEATS times; setup_s is the median build
        plus its warm-up call.  The first warm-up output is the reference."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            case = Case(self.workload, self.seed, self.workdir)
            warm = self.guarded_call(case)
            times.append(time.perf_counter() - start)
            if warm is not None:
                self.checked(case, warm)
            if self.reference is None:
                raise RuntimeError("the first call of the run produced no valid output")
        self.result.setup_s = statistics.median(times)
        return case

    def measure_peak(self, case: Case) -> None:
        tracemalloc.start()
        try:
            call_result = self.guarded_call(case)
            self.result.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if call_result is not None:
            self.checked(case, call_result)

    def check_numerics(self, case: Case) -> None:
        """Row sums, naive-apply agreement and, for the default seed at full
        size, the stored reference fingerprint."""
        self.result.attempted += 1
        try:
            kernels, naive, self.result.largest_bytes = case.naive_pass()
        except Exception:
            self.fail(traceback.format_exc())
            return
        row_err = float(np.max(np.abs(kernels.astype(np.float64).sum(axis=2) - 1.0)))
        if not row_err <= ROW_SUM_TOL:
            self.result.problems.append(f"kernel rows sum off by {row_err:.3g} > {ROW_SUM_TOL:g}")
        err = max_rel_error(naive, self.reference_output)
        if not err <= EQUIVALENCE_TOL:
            self.result.problems.append(f"naive apply differs by {err:.3g} > {EQUIVALENCE_TOL:g}")
        if self.seed == DEFAULT_SEED and WORKLOADS.get(self.workload.name) == self.workload:
            expected = json.loads(REFERENCE_PATH.read_text())[self.workload.name]
            problem = fingerprint_problem(self.reference_output, expected)
            if problem:
                self.result.problems.append(problem)
        for problem in self.result.problems:
            print(f"{self.workload.name}: check failed: {problem}", file=sys.stderr)

    def timed_calls(self, case: Case, seconds: float,
                    tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
        """Calls until `seconds` have passed (at least once).  Returns the
        wall ms of each call whose output passed, and the probe times run
        after those calls."""
        samples, probes = [], []
        calls = 0
        deadline = time.perf_counter() + seconds
        while calls == 0 or time.perf_counter() < deadline:
            calls += 1
            self.result.timed_attempted += 1
            if tracer:
                tracer.begin_call()
            start = time.perf_counter()
            call_result = self.guarded_call(case)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if call_result is not None and self.checked(case, call_result):
                samples.append(elapsed_ms)
                probes += self.probe.after(elapsed_ms)
            else:
                self.result.timed_failed += 1
                if tracer:
                    tracer.discard_call()
        return samples, probes


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, workdir)
    case = runner.set_up()
    if not trace:
        runner.measure_peak(case)
    runner.check_numerics(case)
    result = runner.result
    result.samples_ms, result.probe_ms = runner.timed_calls(case, seconds / 2 if trace else seconds)
    if not trace:
        return result
    tracer = Tracer()
    traced = RunResult(workload)
    with tracer.installed():
        traced.samples_ms, traced.probe_ms = runner.timed_calls(case, seconds / 2, tracer)
    result.per_layer = per_layer_metrics(tracer.calls)
    untraced_ms, traced_ms = result.upsample_ms(), traced.upsample_ms()
    overhead = (traced_ms / untraced_ms - 1) * 100 if untraced_ms and traced_ms else 0.0
    result.per_layer["trace.overhead_pct"] = (overhead, "%")
    result.per_layer["upsample_ms"] = (result.upsample_ms(), "ms")
    return result


def _cache_sizes() -> dict[str, float]:
    """Data and unified cache sizes of cpu0 in MiB, keyed L1..L3."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        scale = units.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale / MIB
    return sizes


def machine_record() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "cache_mib": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
    }


def summary_line(result: RunResult, machine: dict) -> str:
    """One human-readable line of end-to-end numbers, sizes against L3."""
    l3 = machine["cache_mib"].get("L3")
    samples = result.samples_ms
    # a tail percentile is shown only with at least ten samples beyond it
    tail = f", p90 {np.percentile(samples, 90):.1f}" if len(samples) >= 100 else ", too few samples for a tail"
    timing = (f"upsample_ms={statistics.median(samples):.1f} ms (median of n={len(samples)}, "
              f"range {min(samples):.1f}-{max(samples):.1f}{tail}) upsample_rel={result.upsample_rel():.2f} x probe"
              if samples else "upsample_ms=n/a (no passing call)")
    parts = [
        f"{result.workload.name}:",
        timing,
        f"setup_s={result.setup_s:.3f} s",
        f"error_rate={result.error_rate:.4g} ({result.failed}/{result.attempted})",
        f"largest_array_mib={result.largest_bytes / MIB:.1f} MiB (computed)",
    ]
    if result.peak_bytes:
        parts.append(f"peak_mib={result.peak_bytes / MIB:.1f} MiB (tracemalloc)")
    if l3:
        parts.append(f"vs L3={l3:.0f} MiB")
    return " ".join(parts)


def main(argv: list[str] | None = None, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description="resfu end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / f"{SCRATCH_PREFIX}{os.getpid()}"
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    results = []
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
            result.setup_s += import_s
            results.append(result)
            print(summary_line(result, machine))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0].metrics(bool(args.trace))
    else:
        metrics = {f"{r.workload.name}.{key}": value
                   for r in results for key, value in r.metrics(bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0
