import re

import numpy as np
import pytest

from jetforge import tensorio


def test_raw_tensor_roundtrip(tmp_path, rng):
    x = rng.normal(size=(1, 3, 8, 12)).astype(np.float32)
    path = tmp_path / "t.f32"
    tensorio.save_raw_tensor(path, x)
    assert path.stat().st_size == 16 + x.size * 4
    back = tensorio.load_raw_tensor(path)
    assert np.array_equal(back, x)


def test_raw_tensor_truncated(tmp_path):
    path = tmp_path / "t.f32"
    tensorio.save_raw_tensor(path, np.zeros((1, 1, 2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(tensorio.ImageFormatError):
        tensorio.load_raw_tensor(path)


def test_ppm_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, size=(10, 14, 3)).astype(np.float32)
    path = tmp_path / "img.ppm"
    tensorio.save_image(path, img)
    back = tensorio.load_image(path)
    assert back.shape == (10, 14, 3)
    # 8-bit storage: half a level of quantization error at most
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-7


def test_pgm_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, size=(6, 9)).astype(np.float32)
    path = tmp_path / "img.pgm"
    tensorio.save_image(path, img)
    back = tensorio.load_image(path)
    assert back.shape == (6, 9, 1)
    assert np.abs(back[:, :, 0] - img).max() <= 0.5 / 255 + 1e-7


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = tensorio.load_image(path)
    assert img.shape == (2, 3, 1)
    assert img[0, 1, 0] == pytest.approx(1 / 255)


def test_bad_magic_and_maxval(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")  # ascii ppm unsupported
    with pytest.raises(tensorio.ImageFormatError):
        tensorio.load_image(path)
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(tensorio.ImageFormatError):
        tensorio.load_image(path)


def test_truncated_pixels(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)  # needs 12 bytes
    with pytest.raises(tensorio.ImageFormatError):
        tensorio.load_image(path)


@pytest.mark.parametrize("width,height", [(64, 64), (99999, 99999)],
                         ids=["64x64", "99999x99999"])
def test_pnm_header_larger_than_the_file_is_refused_naming_both_sizes(tmp_path, width, height):
    """The header's payload size is checked against the file's before the
    payload is read, so a header of any size asks for no more memory."""
    path = tmp_path / "big.ppm"
    header = b"P6\n%d %d\n255\n" % (width, height)
    path.write_bytes(header + bytes(20 - len(header)))  # a 20-byte file
    message = (f"{path}: payload holds {20 - len(header)} bytes, "
               f"header implies {width * height * 3}")
    with pytest.raises(tensorio.ImageFormatError, match="^" + re.escape(message) + "$"):
        tensorio.load_image(path)


def test_load_input_dispatch(tmp_path, rng):
    x = rng.uniform(0, 1, size=(1, 3, 4, 4)).astype(np.float32)
    raw = tmp_path / "t.raw"
    tensorio.save_raw_tensor(raw, x)
    assert np.array_equal(tensorio.load_input(raw), x)

    gray = tmp_path / "g.pgm"
    tensorio.save_image(gray, rng.uniform(0, 1, size=(4, 4)).astype(np.float32))
    loaded = tensorio.load_input(gray, channels=3)
    assert loaded.shape == (1, 3, 4, 4)
    assert np.array_equal(loaded[0, 0], loaded[0, 2])  # gray replicated
