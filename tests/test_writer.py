"""The one writer behind every file resfu saves: maps (whole or streamed),
weight bundles and PPM images are preallocated to their final size, filled
through a ".part" sibling and moved onto their path only when complete."""

import errno
import os

import numpy as np
import pytest

from resfu.params_io import save_params, serialize_params
from resfu.tensor import FeatureMap, save_tensor, serialize
from resfu.upsampler import generate_params
from resfu.visualize import encode_ppm, save_ppm


def _map(seed):
    return FeatureMap(np.random.default_rng(seed).standard_normal((6, 5, 3)).astype(np.float32))


def _save_map(path, seed):
    fmap = _map(seed)
    save_tensor(path, fmap)
    return serialize(fmap)


def _save_streamed_map(path, seed):
    fmap = _map(seed)

    def fill(write):
        for i0 in range(0, 6, 4):  # a band of 4 rows, then one of 2
            write(fmap.data[i0 : i0 + 4])

    save_tensor(path, fmap.shape, fill)
    return serialize(fmap)


def _save_bundle(path, seed):
    params = generate_params(3, 2, seed=seed)
    save_params(path, params)
    return serialize_params(params)


def _save_image(path, seed):
    rgb = np.random.default_rng(seed).integers(0, 256, (4, 7, 3), dtype=np.uint8)
    save_ppm(path, rgb)
    return encode_ppm(rgb)


WRITERS = {
    "save_tensor": _save_map,
    "save_tensor_streamed": _save_streamed_map,
    "save_params": _save_bundle,
    "save_ppm": _save_image,
}
writers = pytest.mark.parametrize("save", WRITERS.values(), ids=WRITERS.keys())


def fallocate_raising(monkeypatch, code):
    """Make os.posix_fallocate fail with errno `code`."""

    def failing(fd, offset, length):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, "posix_fallocate", failing)


@writers
def test_each_file_is_preallocated_once_at_its_final_size(tmp_path, monkeypatch, save):
    real = os.posix_fallocate
    calls = []

    def recording(fd, offset, length):
        calls.append((offset, length))
        real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", recording)
    path = tmp_path / "f"
    expected = save(path, 0)
    assert calls == [(0, len(expected))]
    assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@writers
@pytest.mark.parametrize("code", [None, errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS],
                         ids=lambda code: errno.errorcode[code] if code else "no_posix_fallocate")
def test_writes_without_preallocation_where_unsupported(tmp_path, monkeypatch, save, code):
    if code is None:
        monkeypatch.delattr(os, "posix_fallocate")  # as on a platform without it
    else:
        fallocate_raising(monkeypatch, code)
    path = tmp_path / "f"
    for seed in (0, 1):  # onto a missing path, then over the file
        expected = save(path, seed)
        assert path.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@writers
@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EFBIG, errno.EDQUOT], ids=errno.errorcode.get)
def test_a_full_disk_keeps_the_earlier_file(tmp_path, monkeypatch, save, code):
    path = tmp_path / "f"
    before = save(path, 0)
    fallocate_raising(monkeypatch, code)
    with pytest.raises(OSError) as info:
        save(path, 1)
    assert info.value.errno == code
    assert str(path) in str(info.value)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_a_failed_reservation_computes_no_payload(tmp_path, monkeypatch):
    fallocate_raising(monkeypatch, errno.ENOSPC)
    filled = []
    with pytest.raises(OSError):
        save_tensor(tmp_path / "m.rsft", (6, 5, 3), filled.append)
    assert filled == []
    assert list(tmp_path.iterdir()) == []
