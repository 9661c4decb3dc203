"""Dataset ingestion and generation.

Real data comes from a directory tree ``root/<class>/<file>.ppm`` of binary
(P6) PPM images, decoded here without any external codec and bilinearly
resized to the model's input size. Synthetic data is a deterministic
stand-in: classes are blurred-blob textures that differ in blob count and
channel balance, separable even by a pixel-histogram probe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Unreadable image or malformed dataset layout."""


@dataclass
class DatasetSplit:
    items: list[tuple[np.ndarray, int, str]]  # (image [3,H,W] in [0,1], label, source id)
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.items)

    def stack(self) -> tuple[np.ndarray, np.ndarray]:
        images = np.stack([img for img, _, _ in self.items])
        labels = np.array([label for _, label, _ in self.items], dtype=np.int64)
        return images, labels


# ----------------------------------------------------------------------
# binary PPM (P6)
# ----------------------------------------------------------------------

# magic, width, height and maxval, each after whitespace and '#' comments that run to the line's end
_PPM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)" * 4)


def decode_ppm_bytes(data: bytes, name: str = "<bytes>") -> np.ndarray:
    """Decode a binary P6 PPM into a float image [3,H,W] scaled to [0,1]."""
    header = _PPM_HEADER.match(data)
    magic, *fields = header.groups()
    if magic and magic != b"P6":
        raise DatasetError(f"'{name}' is not a binary P6 PPM")
    if not fields[-1]:  # a field is empty only where the data ends
        raise DatasetError(f"truncated PPM header in '{name}'")
    try:
        width, height, maxval = map(int, fields)
    except ValueError:
        raise DatasetError(f"non-numeric PPM header field in '{name}'") from None
    if width < 1 or height < 1:
        raise DatasetError(f"bad PPM dimensions {width}x{height} in '{name}'")
    if not 1 <= maxval <= 255:
        raise DatasetError(f"unsupported PPM maxval {maxval} in '{name}' (8-bit only)")
    pos = header.end() + 1  # exactly one whitespace byte separates the header from the raster
    need = width * height * 3
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise DatasetError(f"truncated PPM raster in '{name}': need {need} bytes, have {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    if (top := int(pixels.max())) > maxval:
        raise DatasetError(f"PPM sample {top} exceeds maxval {maxval} in '{name}'")
    return pixels.transpose(2, 0, 1).astype(np.float64) / maxval


def read_ppm(path) -> np.ndarray:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise DatasetError(f"cannot read '{path}': {err}") from None
    return decode_ppm_bytes(data, name=str(path))


def encode_ppm(image: np.ndarray) -> bytes:
    """Encode a float image [3,H,W] in [0,1] as a binary P6 PPM with maxval 255."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected image[3,H,W], got shape {image.shape}")
    _, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def write_ppm(path, image: np.ndarray) -> None:
    Path(path).write_bytes(encode_ppm(image))


# ----------------------------------------------------------------------
# resizing
# ----------------------------------------------------------------------


def bilinear_resize(image: np.ndarray, size: int) -> np.ndarray:
    """Resize [3,H,W] to [3,size,size] with half-pixel-centered bilinear sampling."""
    image = np.asarray(image, dtype=np.float64)
    _, h, w = image.shape
    if h == size and w == size:
        return image.copy()

    def axis_weights(src: int, dst: int):
        coords = np.clip((np.arange(dst) + 0.5) * (src / dst) - 0.5, 0.0, src - 1.0)
        lo = np.floor(coords).astype(np.int64)
        hi = np.minimum(lo + 1, src - 1)
        frac = coords - lo
        return lo, hi, frac

    y0, y1, fy = axis_weights(h, size)
    x0, x1, fx = axis_weights(w, size)

    def along_x(rows: np.ndarray) -> np.ndarray:
        return rows[:, :, x0] * (1 - fx) + rows[:, :, x1] * fx

    top, bottom = along_x(image[:, y0]), along_x(image[:, y1])
    return top * (1 - fy[:, None]) + bottom * fy[:, None]


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------


def load_dataset(root, image_size: int) -> DatasetSplit:
    """Load ``root/<class>/<file>.ppm`` with labels in lexicographic class order."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root '{root}' is not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DatasetError(f"dataset root '{root}' contains no class directories")
    items: list[tuple[np.ndarray, int, str]] = []
    for label, class_dir in enumerate(class_dirs):
        files = sorted(p for p in class_dir.iterdir() if p.suffix.lower() == ".ppm")
        if not files:
            raise DatasetError(f"class directory '{class_dir}' contains no .ppm images")
        for path in files:
            image = bilinear_resize(read_ppm(path), image_size)
            items.append((image, label, str(path)))
    return DatasetSplit(items=items, class_names=[p.name for p in class_dirs])


def synth_dataset(seed: int, num_classes: int, per_class: int, size: int) -> DatasetSplit:
    """Deterministic blurred-blob textures; classes differ in blob count and tint."""
    if num_classes < 2:
        raise DatasetError(f"need at least 2 classes, got {num_classes}")
    if per_class < 1 or size < 1:
        raise DatasetError(f"per_class={per_class} and size={size} must be >= 1")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    items: list[tuple[np.ndarray, int, str]] = []
    class_names = [f"class_{c:02d}" for c in range(num_classes)]
    for c in range(num_classes):
        phase = 2.0 * np.pi * c / num_classes
        tint = 0.35 + 0.6 * np.array(
            [
                0.5 * (1 + np.cos(phase)),
                0.5 * (1 + np.cos(phase - 2 * np.pi / 3)),
                0.5 * (1 + np.cos(phase - 4 * np.pi / 3)),
            ]
        )
        blobs = 3 + 2 * c
        for i in range(per_class):
            field = np.zeros((size, size))
            for _ in range(blobs):
                cy, cx = rng.uniform(0, size, size=2)
                sigma = size * (0.06 + 0.25 * rng.random() / (1.0 + 0.7 * c))
                amp = rng.uniform(0.4, 1.0)
                field += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma**2))
            field /= max(field.max(), 1e-9)
            image = tint[:, None, None] * field[None] + 0.05 * rng.random((3, size, size))
            items.append((np.clip(image, 0.0, 1.0), c, f"synth/{class_names[c]}/{i}"))
    return DatasetSplit(items=items, class_names=class_names)
