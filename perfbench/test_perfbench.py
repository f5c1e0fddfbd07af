"""Tests of the benchmark itself, on smoke-size workloads.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import resfu  # noqa: E402
import spans  # noqa: E402
from resfu import FeatureMap, upsampler  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(harness.WORKLOADS)


@pytest.fixture
def smoke_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "WORKLOADS", {name: harness.smoke(w) for name, w in harness.WORKLOADS.items()})
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    return harness.WORKLOADS


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_printed_metrics_match_benchmark_json(smoke_workloads, capsys, name, trace):
    rc = harness.main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["upsampler.run_pipeline.calls"]["value"] == 1
        assert result["metrics"]["ops.group_normalize.calls"]["value"] == 6
        assert result["metrics"]["tensor.save_tensor.calls"]["value"] == (8 if name.startswith("cli") else 0)


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "resfu" or name.startswith("resfu.") for attr, value in vars(mod).items()}


def test_tracing_puts_every_binding_back(smoke_workloads, tmp_path):
    before = _bindings()
    result = harness.run_workload(harness.WORKLOADS["cli_dump_c384_r8"], 3, 0.2, True, tmp_path)
    assert result.correct and result.per_layer["cli.main.calls"] == (1, "count")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_outputs_count_as_failures_not_times(smoke_workloads, monkeypatch, tmp_path, name):
    # every second call returns an output one value off, and takes 0.5 s
    # longer, so a corrupted call that were timed would show in the samples
    real = upsampler.kernel_apply_fns
    calls = []

    def corrupting(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        if len(calls) % 2 == 0:
            time.sleep(0.5)
            data = out.data.copy()
            data.flat[0] += 1.0
            return FeatureMap(data)
        return out

    monkeypatch.setattr(upsampler, "kernel_apply_fns", corrupting)
    result = harness.run_workload(harness.WORKLOADS[name], 3, 1.5, False, tmp_path)
    assert not result.correct
    assert result.timed_failed >= 1 and result.failed >= result.timed_failed
    assert result.error_rate == result.failed / result.attempted > 0
    assert len(result.samples_ms) == result.timed_attempted - result.timed_failed >= 1
    assert max(result.samples_ms) < 500
    assert result.metrics(False)["upsample_rel"]["value"] == (
        statistics.median(result.samples_ms) / statistics.median(result.probe_ms))


def test_removed_function_reads_as_zero_calls(smoke_workloads, monkeypatch, tmp_path):
    # the pipeline still holds its own binding, so it runs; the span is gone
    monkeypatch.delattr(resfu.ops, "gaussian_smooth3")
    result = harness.run_workload(harness.WORKLOADS["ratio4_256"], 3, 0.2, True, tmp_path)
    assert result.correct
    assert result.per_layer["ops.gaussian_smooth3.calls"] == (0, "count")
    assert result.per_layer["ops.gaussian_smooth3.self_ms"] == (0.0, "ms")
    assert result.per_layer["guided_filter.guided_filter.calls"] == (1, "count")


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span("a", None, 0.0, 10.0)
    kids = [spans.Span("b", 0, 1.0, 3.0), spans.Span("b", 0, 2.0, 4.0), spans.Span("c", 0, 5.0, 6.0)]
    grandchild = spans.Span("d", 3, 5.5, 6.0)
    assert spans.self_seconds([parent, *kids, grandchild]) == [6.0, 2.0, 2.0, 0.5, 0.5]


def test_fingerprint_tolerates_small_drift_only():
    output = np.random.default_rng(0).standard_normal((8, 8, 4)).astype(np.float32)
    reference = harness.fingerprint(output)
    assert harness.fingerprint_problem(output * np.float32(1 + 1e-6), reference) is None
    assert harness.fingerprint_problem(output * np.float32(1 + 1e-3), reference) is not None


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
