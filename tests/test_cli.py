"""Command-line contract tests: flag wiring, output files, and the exit-code
mapping (0 ok, 1 failed check, 2 file/parse trouble, 3 shape/ratio trouble,
4 out of memory)."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from resfu import cli, upsampler
from resfu.ops import bilinear_resize, nearest_resize
from resfu.oracle import max_rel_error
from resfu.params_io import load_params, save_params
from resfu.selfcheck import CheckResult
from resfu.tensor import FeatureMap, load_tensor, save_tensor
from resfu.upsampler import UpsampleConfig, generate_params, innerprod_upsample, run_pipeline


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    save_tensor(tmp_path / "x.rsft", FeatureMap(rng.standard_normal((8, 8, 6)).astype(np.float32)))
    save_tensor(tmp_path / "y.rsft", FeatureMap(rng.standard_normal((16, 16, 3)).astype(np.float32)))
    rc = cli.main(["gen-weights", "--cin", "6", "--cguide", "3", "--seed", "1",
                   "--out", str(tmp_path / "w.rsfw")])
    assert rc == 0
    return tmp_path


def upsample_args(ws, **overrides):
    args = {
        "--input": str(ws / "x.rsft"),
        "--guide": str(ws / "y.rsft"),
        "--weights": str(ws / "w.rsfw"),
        "--ratio": "2",
        "--out": str(ws / "out.rsft"),
    }
    args.update(overrides)
    return ["upsample"] + [piece for pair in args.items() for piece in pair]


class TestGenWeights:
    def test_writes_loadable_deterministic_bundle(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.rsfw", tmp_path / "b.rsfw"
        for out in (out_a, out_b):
            assert cli.main(["gen-weights", "--cin", "4", "--cguide", "2",
                             "--seed", "7", "--out", str(out)]) == 0
        assert f"wrote {out_b}" in capsys.readouterr().out
        assert out_a.read_bytes() == out_b.read_bytes()
        load_params(out_a)  # parses back

    @pytest.mark.parametrize("flag", ["--cin", "--cguide"])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_channel_count_below_one_exits_three(self, tmp_path, capsys, flag, count):
        args = {"--cin": "4", "--cguide": "2", flag: count}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            rc = cli.main(["gen-weights", *[p for pair in args.items() for p in pair],
                           "--out", str(tmp_path / "w.rsfw")])
        assert rc == 3
        assert "channel counts must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "w.rsfw").exists()

    def test_unwritable_path_exits_two(self, tmp_path, capsys):
        rc = cli.main(["gen-weights", "--cin", "4", "--cguide", "2",
                       "--out", str(tmp_path / "no" / "dir" / "w.rsfw")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestUpsample:
    def test_full_pipeline_output(self, workspace, capsys):
        assert cli.main(upsample_args(workspace)) == 0
        out = load_tensor(workspace / "out.rsft")
        assert out.shape == (16, 16, 6)
        assert "16x16x6" in capsys.readouterr().out

    def test_repeat_runs_and_thread_counts_are_byte_identical(self, workspace):
        blobs = []
        for name, threads in (("r1.rsft", "1"), ("r2.rsft", "1"), ("r3.rsft", "3")):
            args = upsample_args(workspace, **{"--out": str(workspace / name), "--threads": threads})
            assert cli.main(args) == 0
            blobs.append((workspace / name).read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_fused_flag_does_not_change_bytes(self, workspace):
        # the two paths agree to 1e-6, and each repeats its own bytes
        outs = {}
        for name, fused in (("f", "true"), ("f2", "true"), ("n", "false"), ("n2", "false")):
            args = upsample_args(workspace, **{"--out": str(workspace / f"{name}.rsft"), "--fused": fused})
            assert cli.main(args) == 0
            outs[name] = (workspace / f"{name}.rsft").read_bytes()
        assert outs["f"] == outs["f2"] and outs["n"] == outs["n2"]
        fused, naive = (load_tensor(workspace / f"{name}.rsft").data for name in ("f", "n"))
        assert max_rel_error(fused, naive) <= 1e-6

    def test_dump_dir_writes_intermediates(self, workspace):
        dump = workspace / "dump"
        assert cli.main(upsample_args(workspace, **{"--out": str(workspace / "plain.rsft")})) == 0
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(dump)]) == 0
        names = {p.name for p in dump.iterdir()}
        assert names == {"q.rsft", "k_up.rsft", "q_gf.rsft", "q_gs.rsft",
                         "s_s.rsft", "s_d.rsft", "kernels.rsft"}
        assert load_tensor(dump / "kernels.rsft").shape == (16, 16, 9)
        result = run_pipeline(load_tensor(workspace / "x.rsft"), load_tensor(workspace / "y.rsft"),
                              load_params(workspace / "w.rsfw"), UpsampleConfig(ratio=2))
        for path in dump.iterdir():
            save_tensor(workspace / "want.rsft", getattr(result, path.stem))
            assert path.read_bytes() == (workspace / "want.rsft").read_bytes(), path.name
        assert (workspace / "out.rsft").read_bytes() == (workspace / "plain.rsft").read_bytes()

    def test_dump_dir_naming_a_file_exits_two_before_any_stage(self, workspace, capsys, monkeypatch):
        def no_stage(*args):
            raise AssertionError("a stage ran although the dump directory cannot be made")

        monkeypatch.setattr(upsampler, "project_qk", no_stage)
        taken = workspace / "taken"
        taken.write_bytes(b"")
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(taken)]) == 2
        assert str(taken) in capsys.readouterr().err
        assert not (workspace / "out.rsft").exists()

    @pytest.mark.parametrize("baseline,resize", [("bilinear", bilinear_resize), ("nearest", nearest_resize)])
    def test_resize_baselines(self, workspace, baseline, resize):
        assert cli.main(upsample_args(workspace) + ["--baseline", baseline]) == 0
        got = load_tensor(workspace / "out.rsft")
        want = resize(load_tensor(workspace / "x.rsft"), 16, 16)
        np.testing.assert_array_equal(got.data, want.data)

    def test_innerprod_baseline(self, workspace):
        assert cli.main(upsample_args(workspace) + ["--baseline", "innerprod"]) == 0
        got = load_tensor(workspace / "out.rsft")
        want = innerprod_upsample(
            load_tensor(workspace / "x.rsft"),
            load_tensor(workspace / "y.rsft"),
            load_params(workspace / "w.rsfw"),
            UpsampleConfig(ratio=2),
        )
        np.testing.assert_array_equal(got.data, want.data)

    def test_missing_input_exits_two_and_names_path(self, workspace, capsys):
        missing = str(workspace / "absent.rsft")
        rc = cli.main(upsample_args(workspace, **{"--input": missing}))
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_corrupt_tensor_exits_two_and_names_path(self, workspace, capsys):
        bad = workspace / "bad.rsft"
        bad.write_bytes(b"garbage that is not a tensor")
        rc = cli.main(upsample_args(workspace, **{"--input": str(bad)}))
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    def test_corrupt_weight_magic_exits_two(self, workspace, capsys):
        blob = (workspace / "w.rsfw").read_bytes()
        (workspace / "w.rsfw").write_bytes(b"XXXX" + blob[4:])
        assert cli.main(upsample_args(workspace)) == 2
        assert "w.rsfw" in capsys.readouterr().err

    def test_non_utf8_bundle_entry_name_exits_two(self, workspace, capsys):
        blob = bytearray((workspace / "w.rsfw").read_bytes())
        blob[16] = 0xFF  # first byte of the first entry name
        (workspace / "w.rsfw").write_bytes(bytes(blob))
        assert cli.main(upsample_args(workspace)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "w.rsfw" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "block,fields",
        [
            ("block_s", {"conv2_bias": np.zeros(8)}),
            ("block_s", {"conv1_bias": np.zeros(7)}),
            ("block_d", {"conv2_weight": np.zeros((8, 128)), "conv2_bias": np.zeros(8)}),
            ("block_d", {"conv1_bias": np.zeros(7)}),
        ],
        ids=["conv2_bias_8", "conv1_bias_7", "conv2_8_scores_at_k3", "conv1_bias_7_block_d"],
    )
    def test_inconsistent_compressor_bundle_exits_two(self, workspace, capsys, block, fields):
        # the dataclass checks would refuse these tensors, so they are set on
        # the frozen fields directly, as a hand-edited file would carry them
        params = generate_params(6, 3, seed=1)
        comp = getattr(params, block).comp
        for name, value in fields.items():
            object.__setattr__(comp, name, np.asarray(value, np.float32))
        save_params(workspace / "w.rsfw", params)
        assert cli.main(upsample_args(workspace)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "w.rsfw" in err and "inconsistent weight bundle" in err
        tag, other = ("s", "d") if block == "block_s" else ("d", "s")
        assert f"comp_{tag}" in err and f"comp_{other}" not in err
        assert "Traceback" not in err
        assert not (workspace / "out.rsft").exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 16.0 GiB for an array", ""])
    def test_out_of_memory_exits_four(self, workspace, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
        assert cli.main(upsample_args(workspace)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert (message or "an allocation failed") in err
        assert "Traceback" not in err
        assert not (workspace / "out.rsft").exists()

    def test_inf_guide_pixel_exits_one(self, workspace, capsys):
        y = load_tensor(workspace / "y.rsft").data.copy()
        y[5, 9, 1] = -np.inf
        save_tensor(workspace / "inf.rsft", FeatureMap(y))
        for baseline in ([], ["--baseline", "bilinear"], ["--baseline", "innerprod"]):
            rc = cli.main(upsample_args(workspace, **{"--guide": str(workspace / "inf.rsft")}) + baseline)
            err = capsys.readouterr().err
            assert rc == 1
            assert "error: guide holds NaN or infinite values" in err
        assert not (workspace / "out.rsft").exists()

    def test_guide_ratio_mismatch_exits_three(self, workspace, capsys):
        rc = cli.main(upsample_args(workspace, **{"--ratio": "4"}))
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_kernel_mismatch_exits_three(self, workspace):
        assert cli.main(upsample_args(workspace, **{"--kernel": "5"})) == 3

    def test_nan_pixel_fails_row_check_and_exits_one(self, workspace, capsys):
        # group-norm statistics pool over the whole map, so one NaN pixel
        # makes every kernel row NaN; the row-sum check must catch that
        x = load_tensor(workspace / "x.rsft").data.copy()
        x[3, 4, 2] = np.nan
        save_tensor(workspace / "nan.rsft", FeatureMap(x))
        with np.errstate(invalid="ignore"):
            rc = cli.main(upsample_args(workspace, **{"--input": str(workspace / "nan.rsft")}))
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
        assert "Traceback" not in err
        assert not (workspace / "out.rsft").exists()


class TestVisualize:
    def test_pca_image(self, workspace):
        img = workspace / "x.ppm"
        assert cli.main(["visualize", "--input", str(workspace / "x.rsft"), "--out", str(img)]) == 0
        assert img.read_bytes().startswith(b"P6\n8 8\n255\n")

    def test_channel_mode(self, workspace):
        img = workspace / "c.ppm"
        rc = cli.main(["visualize", "--input", str(workspace / "x.rsft"),
                       "--out", str(img), "--mode", "channel", "--channel", "5"])
        assert rc == 0 and img.exists()

    def test_channel_out_of_range_exits_three(self, workspace):
        rc = cli.main(["visualize", "--input", str(workspace / "x.rsft"),
                       "--out", str(workspace / "c.ppm"), "--mode", "channel", "--channel", "99"])
        assert rc == 3


class TestSelfcheckCommand:
    def _stub(self, monkeypatch, results):
        monkeypatch.setattr(cli, "run_selfcheck", lambda seed, weights: results)

    def test_all_passing_exits_zero(self, monkeypatch, capsys):
        self._stub(monkeypatch, [CheckResult("alpha", 1e-9, 1e-5), CheckResult("beta", 0.0, 0.0)])
        assert cli.main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS alpha" in out and "2/2 checks passed" in out

    def test_any_failure_exits_one(self, monkeypatch, capsys):
        self._stub(monkeypatch, [CheckResult("alpha", 1e-9, 1e-5),
                                 CheckResult("beta", 2.0, 1e-5, detail="went sideways")])
        assert cli.main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL beta" in out and "went sideways" in out and "1/2 checks passed" in out


class TestBenchCommand:
    def test_report_lines(self, capsys):
        rc = cli.main(["bench", "--h", "8", "--w", "8", "--c", "6", "--ratio", "2", "--iters", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("fused vs naive", "fns-fused", "fns-naive", "pcdc-decomposed",
                      "pcdc-direct", "tracemalloc peak (naive)", "tracemalloc peak (fused)"):
            assert token in out

    def test_out_of_bounds_exits_three(self, capsys):
        rc = cli.main(["bench", "--h", "8", "--w", "8", "--c", "6", "--ratio", "3", "--iters", "1"])
        assert rc == 3


class TestArgparseBehavior:
    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["upsample", "--bogus", "1"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "gen-weights" in capsys.readouterr().out

    def test_console_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "resfu.cli", "upsample",
             "--input", str(tmp_path / "nope.rsft"), "--guide", str(tmp_path / "nope.rsft"),
             "--weights", str(tmp_path / "nope.rsfw"), "--ratio", "2",
             "--out", str(tmp_path / "o.rsft")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "nope.rsft" in proc.stderr
