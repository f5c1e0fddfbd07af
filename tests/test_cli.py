"""Command-line contract tests: flag wiring, output files, and the exit-code
mapping (0 ok, 1 failed check, 2 file/parse trouble, 3 shape/ratio trouble,
4 out of memory)."""

import dataclasses
import errno
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from innerprod_reference import innerprod_chain

from resfu import cli, selfcheck, upsampler
from resfu.ops import ShapeMismatch, bilinear_resize, nearest_resize
from resfu.oracle import max_rel_error
from resfu.params_io import load_params, save_params
from resfu.pcdc import PcdcParams
from resfu.selfcheck import CheckResult
from resfu.tensor import HEADER_SIZE, FeatureMap, load_tensor, save_tensor
from resfu.upsampler import (
    RowNotNormalized,
    UpsampleConfig,
    generate_params,
    run_pipeline,
)


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


def no_room_for(monkeypatch, size):
    """Make os.posix_fallocate fail with ENOSPC for a file of `size` bytes."""
    real = os.posix_fallocate

    def full(fd, offset, length):
        if length == size:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", full)


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
        name = {"--cin": "c_in", "--cguide": "c_guide"}[flag]
        assert f"error: {name} must be an integer >= 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "w.rsfw").exists()

    @pytest.mark.parametrize("flag", ["--cin", "--cguide"])
    @pytest.mark.parametrize("count", [str(10**19), str(2**57)])
    def test_impossible_size_exits_four_before_any_draw(self, tmp_path, capsys, monkeypatch, flag, count):
        # 10**19 overflowed numpy's size check in the first draw and 2**57
        # its byte count; both raised ValueError with a traceback
        def no_draw(*args):
            raise AssertionError("drew before the size check")

        monkeypatch.setattr(upsampler._MixStream, "uniform", no_draw)
        args = {"--cin": "4", "--cguide": "2", flag: count}
        rc = cli.main(["gen-weights", *[p for pair in args.items() for p in pair],
                       "--out", str(tmp_path / "w.rsfw")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_exits_two(self, tmp_path, capsys):
        rc = cli.main(["gen-weights", "--cin", "4", "--cguide", "2",
                       "--out", str(tmp_path / "no" / "dir" / "w.rsfw")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_full_disk_keeps_the_earlier_bundle(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "w.rsfw"
        args = ["gen-weights", "--cin", "4", "--cguide", "2", "--out", str(out)]
        assert cli.main(args + ["--seed", "1"]) == 0
        before = out.read_bytes()
        no_room_for(monkeypatch, len(before))
        assert cli.main(args + ["--seed", "2"]) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.rsfw"]


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

    @pytest.mark.parametrize("dump", ["taken", "taken/dump"])
    def test_dump_dir_that_cannot_be_made_is_named(self, workspace, capsys, dump):
        # the error names the option, as --out's checks do, not just the errno
        (workspace / "taken").write_bytes(b"")
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(workspace / dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dump-dir {str(workspace / dump)!r} ") and err.count("\n") == 1

    @pytest.mark.parametrize("out", ["nodir/o.rsft", "subdir"])
    def test_unwritable_out_exits_two_before_loading(self, workspace, capsys, monkeypatch, out):
        # both ran every stage and wrote every dump before exiting 2
        def no_load(*args):
            raise AssertionError("an input was loaded although --out cannot be written")

        monkeypatch.setattr(cli, "load_tensor", no_load)
        monkeypatch.setattr(cli, "load_params", no_load)
        (workspace / "subdir").mkdir()
        out, dump = workspace / out, workspace / "dump"
        assert cli.main(upsample_args(workspace, **{"--out": str(out)}) + ["--dump-dir", str(dump)]) == 2
        assert str(out) in capsys.readouterr().err
        assert not dump.exists()

    def test_empty_out_exits_two_before_loading(self, workspace, capsys, monkeypatch):
        # it ran every stage, wrote every dump, then failed renaming '.part' to ''
        def no_load(*args):
            raise AssertionError("an input was loaded although --out is empty")

        monkeypatch.setattr(cli, "load_tensor", no_load)
        dump = workspace / "dump"
        assert cli.main(upsample_args(workspace, **{"--out": ""}) + ["--dump-dir", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out '' is empty") and err.count("\n") == 1
        assert not dump.exists()
        assert sorted(p.name for p in workspace.iterdir()) == ["w.rsfw", "x.rsft", "y.rsft"]

    @pytest.mark.parametrize("name", ["dump/q.rsft", "dump/../dump/kernels.rsft", "link/s_d.rsft"])
    def test_out_naming_a_dump_file_exits_two_before_loading(self, workspace, capsys, monkeypatch, name):
        # with --out dump/q.rsft both writers shared dump/q.rsft.part, and the
        # run left a q.rsft that no longer loaded
        out, dump = workspace / "out.rsft", workspace / "dump"
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(dump)]) == 0
        (workspace / "link").symlink_to(dump)
        before = {p: p.read_bytes() for p in [out, *dump.iterdir()]}

        def no_load(*args):
            raise AssertionError("an input was loaded although --out is a dump file")

        monkeypatch.setattr(cli, "load_tensor", no_load)
        argv = upsample_args(workspace, **{"--out": str(workspace / name)}) + ["--dump-dir", str(dump)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1 and "--dump-dir" in err
        assert {p: p.read_bytes() for p in [out, *dump.iterdir()]} == before
        assert not [p for p in workspace.rglob("*.part")]

    def test_overflowing_inner_product_scores_exit_one(self, tmp_path, capsys):
        # the innerprod baseline warned "invalid value encountered in subtract"
        # in the softmax and then failed as "kernel rows sum off by nan"
        rng = np.random.default_rng(0)
        save_tensor(tmp_path / "x.rsft", FeatureMap((1e19 * rng.standard_normal((8, 8, 6))).astype(np.float32)))
        save_tensor(tmp_path / "y.rsft", FeatureMap((1e19 * rng.standard_normal((32, 32, 3))).astype(np.float32)))
        assert cli.main(["gen-weights", "--cin", "6", "--cguide", "3", "--seed", "0",
                         "--out", str(tmp_path / "w.rsfw")]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = cli.main(upsample_args(tmp_path, **{"--ratio": "4", "--baseline": "innerprod"}))
        assert not seen
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: similarity scores: 208 of 1024 rows hold NaN or Inf\n"
        assert not (tmp_path / "out.rsft").exists()
        # the pcdc path's group norms rescale the same maps before scoring
        assert cli.main(upsample_args(tmp_path, **{"--ratio": "4"})) == 0

    def test_overflowing_input_projection_exits_one(self, tmp_path, capsys):
        # the overflow warned in the projection and the k_up resize, then
        # failed as "kernel rows sum off by nan; run softmax_rows first"
        save_tensor(tmp_path / "x.rsft", FeatureMap(np.full((4, 4, 3), 3e38, np.float32)))
        save_tensor(tmp_path / "y.rsft", FeatureMap(np.ones((8, 8, 2), np.float32)))
        save_params(tmp_path / "w.rsfw", generate_params(3, 2))
        dump = tmp_path / "dump"
        assert cli.main(upsample_args(tmp_path) + ["--dump-dir", str(dump)]) == 1
        err = capsys.readouterr().err
        assert err == "error: projecting the input overflows float32 (overflow encountered in matmul)\n"
        assert list(dump.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump", "w.rsfw", "x.rsft", "y.rsft"]

    def test_non_finite_bundle_weight_exits_two_before_any_stage(self, workspace, capsys):
        # an all-NaN projection ran every stage and exited 1 with a kernel row-sum message
        params = generate_params(6, 3, seed=1)
        object.__setattr__(params.proj, "weight_q", np.full_like(params.proj.weight_q, np.nan))
        save_params(workspace / "w.rsfw", params)
        dump = workspace / "dump"
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(dump)]) == 2
        err = capsys.readouterr().err
        assert "w.rsfw" in err and "proj_q.weight: holds NaN or infinite values" in err
        assert not dump.exists()
        assert not (workspace / "out.rsft").exists()

    @pytest.mark.parametrize("tag", ["s", "d"])
    def test_group_width_that_does_not_split_the_channels_exits_two(self, workspace, capsys, tag):
        # the bundle stores no group count; the weight's width 24 does not split D = 32
        params = generate_params(6, 3, seed=1)
        pcdc = getattr(params, f"block_{tag}").pcdc
        object.__setattr__(pcdc, "weight", np.zeros((9, 24, pcdc.out_channels), np.float32))
        save_params(workspace / "w.rsfw", params)
        assert cli.main(upsample_args(workspace)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"pcdc_{tag}" in err and "group width 24 does not divide 32 channels" in err
        assert not (workspace / "out.rsft").exists()

    @pytest.mark.parametrize("tag", ["s", "d"])
    def test_conv1_group_width_that_does_not_split_the_pcdc_outputs_exits_two(self, workspace, capsys, tag):
        # the bundle stores no compressor group count; conv1's width 5 does not split L = 32
        params = generate_params(6, 3, seed=1)
        object.__setattr__(getattr(params, f"block_{tag}").comp, "conv1_weight", np.zeros((128, 5), np.float32))
        save_params(workspace / "w.rsfw", params)
        assert cli.main(upsample_args(workspace)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"comp_{tag}" in err and "conv1 weight group width 5 does not divide 32 channels" in err
        assert not (workspace / "out.rsft").exists()

    def test_kernel_defaults_to_the_bundles(self, workspace):
        rng = np.random.default_rng(5)
        params = generate_params(6, 3, seed=1)

        def with_k5(block):
            ksq, hidden = 25, block.comp.conv2_weight.shape[1]
            weight = 0.1 * rng.standard_normal((ksq,) + block.pcdc.weight.shape[1:])
            comp = dataclasses.replace(block.comp, conv2_weight=0.1 * rng.standard_normal((ksq, hidden)),
                                       conv2_bias=np.zeros(ksq))
            return dataclasses.replace(block, pcdc=PcdcParams(weight, block.pcdc.bias),
                                       comp=comp)

        params = dataclasses.replace(params, block_s=with_k5(params.block_s), block_d=with_k5(params.block_d))
        save_params(workspace / "w.rsfw", params)
        assert cli.main(upsample_args(workspace)) == 0
        want = run_pipeline(load_tensor(workspace / "x.rsft"), load_tensor(workspace / "y.rsft"),
                            load_params(workspace / "w.rsfw"), UpsampleConfig(ratio=2)).output
        assert np.array_equal(load_tensor(workspace / "out.rsft").data, want.data)
        assert cli.main(upsample_args(workspace, **{"--kernel": "5"})) == 0
        assert cli.main(upsample_args(workspace, **{"--kernel": "3"})) == 3

    @pytest.mark.parametrize("baseline,resize", [("bilinear", bilinear_resize), ("nearest", nearest_resize)])
    def test_resize_baselines(self, workspace, baseline, resize):
        assert cli.main(upsample_args(workspace) + ["--baseline", baseline]) == 0
        got = load_tensor(workspace / "out.rsft")
        want = resize(load_tensor(workspace / "x.rsft"), 16, 16)
        np.testing.assert_array_equal(got.data, want.data)

    def test_innerprod_baseline(self, workspace):
        x, y = load_tensor(workspace / "x.rsft"), load_tensor(workspace / "y.rsft")
        params = load_params(workspace / "w.rsfw")
        for fused in ("true", "false"):
            assert cli.main(upsample_args(workspace, **{"--fused": fused}) + ["--baseline", "innerprod"]) == 0
            want = innerprod_chain(x, y, params, 2, fused=fused == "true")["output"]
            save_tensor(workspace / "want.rsft", want)
            assert (workspace / "out.rsft").read_bytes() == (workspace / "want.rsft").read_bytes(), fused

    def test_innerprod_dump_dir_writes_its_intermediates(self, workspace):
        dump = workspace / "dump"
        assert cli.main(upsample_args(workspace) + ["--baseline", "innerprod", "--dump-dir", str(dump)]) == 0
        assert {p.name for p in dump.iterdir()} == {"q.rsft", "k_up.rsft", "kernels.rsft"}
        result = run_pipeline(load_tensor(workspace / "x.rsft"), load_tensor(workspace / "y.rsft"),
                              load_params(workspace / "w.rsfw"), UpsampleConfig(ratio=2), similarity="innerprod")
        for path in dump.iterdir():
            save_tensor(workspace / "want.rsft", getattr(result, path.stem))
            assert path.read_bytes() == (workspace / "want.rsft").read_bytes(), path.name

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


def fail_after_first_band(monkeypatch, error):
    """Make the kernel apply raise `error` once its first output band has
    gone to the stream; returns the list of bands that went."""
    real = upsampler.kernel_apply_fns
    sent = []

    def failing(*args, rows, **kwargs):
        def first_band_then_fail(band):
            rows(band)
            sent.append(band.shape)
            raise error

        return real(*args, rows=first_band_then_fail, **kwargs)

    monkeypatch.setattr(upsampler, "kernel_apply_fns", failing)
    return sent


class TestStreamedOut:
    @pytest.mark.parametrize("fused", ["true", "false"])
    @pytest.mark.parametrize("error, code", [
        (RowNotNormalized("kernel rows sum off"), 1),
        (OSError(errno.ENOSPC, "No space left on device"), 2),
        (ShapeMismatch("band shape"), 3),
        (MemoryError("Unable to allocate"), 4),
    ])
    def test_failure_after_a_band_keeps_the_existing_out(self, workspace, capsys, monkeypatch,
                                                         error, code, fused):
        out = workspace / "out.rsft"
        assert cli.main(upsample_args(workspace, **{"--fused": fused})) == 0
        before = out.read_bytes()
        sent = fail_after_first_band(monkeypatch, error)
        assert cli.main(upsample_args(workspace, **{"--fused": fused})) == code
        assert sent == [(2, 16, 6) if fused == "true" else (16, 16, 6)]
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == ["out.rsft", "w.rsfw", "x.rsft", "y.rsft"]

    def test_failure_after_a_band_writes_no_out(self, workspace, monkeypatch):
        sent = fail_after_first_band(monkeypatch, MemoryError())
        dump = workspace / "dump"
        assert cli.main(upsample_args(workspace) + ["--dump-dir", str(dump)]) == 4
        assert len(sent) == 1
        assert sorted(p.name for p in workspace.iterdir()) == ["dump", "w.rsfw", "x.rsft", "y.rsft"]
        assert len(list(dump.iterdir())) == 7  # every stage before the apply finished

    def test_full_disk_for_out_exits_two_before_any_stage(self, workspace, capsys, monkeypatch):
        # the full pipeline and the inner-product baseline, through one path
        out, dump = workspace / "out.rsft", workspace / "dump"
        assert cli.main(upsample_args(workspace)) == 0
        before = out.read_bytes()
        no_room_for(monkeypatch, len(before))
        ran = []
        monkeypatch.setattr(upsampler, "project_qk", lambda *args: ran.append(args))
        for baseline in ([], ["--baseline", "innerprod"]):
            assert cli.main(upsample_args(workspace) + baseline + ["--dump-dir", str(dump)]) == 2
            err = capsys.readouterr().err
            assert str(out) in err and "Traceback" not in err
            assert ran == []
            assert list(dump.iterdir()) == []
            assert out.read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == ["dump", "out.rsft", "w.rsfw", "x.rsft", "y.rsft"]

    @pytest.mark.parametrize("baseline", ["bilinear", "nearest"])
    def test_full_disk_for_out_exits_two_before_any_resize(self, workspace, capsys, monkeypatch, baseline):
        # the resize baselines write through the same reserved --out (the
        # bilinear one resized once before it failed)
        no_room_for(monkeypatch, HEADER_SIZE + 16 * 16 * 6 * 4)
        ran = []
        for name in ("bilinear_resize", "nearest_resize"):
            monkeypatch.setattr(cli, name, lambda *args: ran.append(args))
        assert cli.main(upsample_args(workspace) + ["--baseline", baseline]) == 2
        err = capsys.readouterr().err
        assert str(workspace / "out.rsft") in err and "Traceback" not in err
        assert ran == []
        assert sorted(p.name for p in workspace.iterdir()) == ["w.rsfw", "x.rsft", "y.rsft"]

    def test_peak_stays_below_the_output(self, tmp_path):
        # 16x16x384 -> 128x128 at ratio 8: the 24 MiB output goes into --out
        # band by band, so the traced peak of the whole command stays below
        # 0.75 of it, for the full pipeline and the inner-product baseline
        # alike (1.1x and 1.27x while the output was held whole for one write)
        rng = np.random.default_rng(6)
        save_tensor(tmp_path / "x.rsft", FeatureMap(rng.standard_normal((16, 16, 384), dtype=np.float32)))
        save_tensor(tmp_path / "y.rsft", FeatureMap(rng.random((128, 128, 3), dtype=np.float32)))
        assert cli.main(["gen-weights", "--cin", "384", "--cguide", "3", "--out", str(tmp_path / "w.rsfw")]) == 0
        out_bytes = 128 * 128 * 384 * 4
        for baseline in ([], ["--baseline", "innerprod"]):
            args = upsample_args(tmp_path, **{"--ratio": "8"}) + baseline
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                rc = cli.main(args)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert (tmp_path / "out.rsft").stat().st_size == HEADER_SIZE + out_bytes
            assert peak < 0.75 * out_bytes, (baseline, peak / out_bytes)


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

    def test_full_disk_keeps_the_earlier_image(self, workspace, capsys, monkeypatch):
        img = workspace / "x.ppm"
        args = ["visualize", "--input", str(workspace / "x.rsft"), "--out", str(img)]
        assert cli.main(args) == 0
        before = img.read_bytes()
        no_room_for(monkeypatch, len(before))
        assert cli.main(args + ["--mode", "channel"]) == 2
        assert str(img) in capsys.readouterr().err
        assert img.read_bytes() == before
        assert not (workspace / "x.ppm.part").exists()

    @pytest.mark.parametrize("mode", ["pca", "channel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_exits_one(self, workspace, capsys, mode, bad):
        x = load_tensor(workspace / "x.rsft").data.copy()
        x[2, 5, 1] = bad
        save_tensor(workspace / "bad.rsft", FeatureMap(x))
        img = workspace / "bad.ppm"
        rc = cli.main(["visualize", "--input", str(workspace / "bad.rsft"), "--out", str(img),
                       "--mode", mode, "--channel", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not img.exists() and not (workspace / "bad.ppm.part").exists()

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


    def test_weights_adds_a_nineteenth_check(self, monkeypatch, tmp_path, capsys):
        # the 18 suite checks are stubs; run_selfcheck and the bundle check are real
        suite = {"check_pcdc_equivalence": 1, "check_guided_filter": 1, "check_fused_vs_naive": 1,
                 "check_constant_preservation": 2, "check_degenerate_scores": 1, "check_anti_mosaic": 2,
                 "check_gradients": 7, "check_cli_determinism": 1, "check_format_round_trips": 2}
        for name, count in suite.items():
            stubs = [CheckResult(f"{name}-{i}", 0.0, 0.0) for i in range(count)]
            monkeypatch.setattr(selfcheck, name, lambda *args, stubs=stubs: stubs if len(stubs) > 1 else stubs[0])
        path = tmp_path / "w.rsfw"
        assert cli.main(["gen-weights", "--cin", "4", "--cguide", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["selfcheck", "--weights", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20 and all(line.startswith("PASS ") for line in lines[:19])
        assert lines[0].split()[1] == "check_pcdc_equivalence-0"
        assert lines[18].split()[1] == "weights-file-loads" and lines[19] == "19/19 checks passed"


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
