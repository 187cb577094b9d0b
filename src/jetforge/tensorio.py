"""Input tensor and image file formats.

Raw tensor dumps are little-endian float32 with a 16-byte header of four
u32 values (n, c, h, w). Images are binary PPM (P6) / PGM (P5) with
maxval 255, normalized to [0, 1] on load.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import Error

RAW_TENSOR_EXTENSIONS = (".f32", ".raw", ".bin", ".tensor")
# the file names a directory of inputs is listed by
INPUT_EXTENSIONS = (".ppm", ".pgm", *RAW_TENSOR_EXTENSIONS)


class ImageFormatError(Error):
    pass


def save_raw_tensor(path, array: np.ndarray) -> None:
    if array.ndim != 4:
        raise ValueError(f"expected n,c,h,w array, got shape {array.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack("<IIII", *array.shape))
        f.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def load_raw_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16:
            raise ImageFormatError(f"{path}: raw tensor header truncated")
        n, c, h, w = struct.unpack("<IIII", head)
        payload = f.read()
    want = n * c * h * w * 4
    if len(payload) != want:
        raise ImageFormatError(f"{path}: payload holds {len(payload)} bytes, header implies {want}")
    return np.frombuffer(payload, dtype="<f4").astype(np.float32).reshape(n, c, h, w)


def _read_pnm_int(f) -> int:
    # skips whitespace and '#' comments between header tokens; errors name f's file
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ImageFormatError(f"{f.name}: unexpected end of PNM header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                break
            continue
        token += ch
    if not token.isdigit() or int(token) < 1:
        raise ImageFormatError(f"{f.name}: PNM header field {token!r} is not a positive integer")
    return int(token)


def load_image(path) -> np.ndarray:
    """Read P5/P6 into an h,w,c float array in [0,1] (c is 1 for P5, 3 for P6)."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise ImageFormatError(f"{path}: unsupported magic {magic!r}")
        width = _read_pnm_int(f)
        height = _read_pnm_int(f)
        maxval = _read_pnm_int(f)
        if maxval != 255:
            raise ImageFormatError(f"{path}: only maxval 255 supported, got {maxval}")
        channels = 3 if magic == b"P6" else 1
        want, left = width * height * channels, os.fstat(f.fileno()).st_size - f.tell()
        if left < want:  # checked before reading: the header's sizes may be any size
            raise ImageFormatError(f"{path}: payload holds {left} bytes, header implies {want}")
        payload = f.read(want)
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return img.astype(np.float32) / 255.0


def save_image(path, img: np.ndarray) -> None:
    """Write an h,w,c (c in {1,3}) float [0,1] array as P5/P6."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if c not in (1, 3):
        raise ImageFormatError(f"cannot save image with {c} channels")
    magic = b"P6" if c == 3 else b"P5"
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def image_to_nchw(img: np.ndarray) -> np.ndarray:
    """h,w,c float image -> 1,c,h,w tensor."""
    if img.ndim == 2:
        img = img[:, :, None]
    return np.ascontiguousarray(img.transpose(2, 0, 1)[None, ...], dtype=np.float32)


def load_input(path, channels: int = 3) -> np.ndarray:
    """Load a raw tensor dump (a name ending in one of
    RAW_TENSOR_EXTENSIONS, any case) or else a PPM/PGM image."""
    if str(path).lower().endswith(RAW_TENSOR_EXTENSIONS):
        return load_raw_tensor(path)
    img = load_image(path)
    if channels == 3 and img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    return image_to_nchw(img)
