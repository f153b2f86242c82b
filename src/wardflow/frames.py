"""Thermal frame I/O: a strict NPY reader, numpy's own NPY writer, grayscale
normalization, and the sequence manifest that carries per-frame timestamps.

Only a strict NPY subset is supported: version 1.0, C-order, 2-D
little-endian float32/float64, with the header written as numpy writes
it. Everything else is rejected rather than guessed at.
"""

from __future__ import annotations

import io
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import parse_number, parse_time, time_key
from .errors import FormatError, UnsupportedError, ValidationError

NPY_MAGIC = b"\x93NUMPY"
# The header dict as numpy writes it (sorted keys, repr values), padded
# with spaces and a newline.  A regex, not `ast.literal_eval`, which
# compiles per frame and leaves reference cycles for the collector.
_NPY_HEADER = re.compile(r"\{'descr': '([^']*)', 'fortran_order': (True|False), "
                         r"'shape': \(([^)]*)\), \}\s*")
_NPY_2D_SHAPE = re.compile(r"([1-9]\d*), ([1-9]\d*)")

# Plausible clinical range for a ward thermal camera, in Celsius.
TEMP_MIN = -20.0
TEMP_MAX = 120.0


@dataclass(frozen=True)
class ThermalFrame:
    """A grid of Celsius readings plus a session-relative timestamp."""

    temps: np.ndarray
    timestamp: float = 0.0

    def __post_init__(self):
        temps = np.asarray(self.temps, dtype=np.float64)
        if temps.ndim != 2:
            raise ValidationError(f"temperature grid must be 2-D, got shape {temps.shape}")
        if not np.all(np.isfinite(temps)):
            raise ValidationError("temperature grid contains non-finite values")
        lo, hi = float(temps.min()), float(temps.max())
        if lo < TEMP_MIN or hi > TEMP_MAX:
            raise ValidationError(
                f"temperatures outside plausible range [{TEMP_MIN}, {TEMP_MAX}]: "
                f"min={lo}, max={hi}"
            )
        if self.timestamp < 0:
            raise ValidationError("timestamp must be non-negative")
        object.__setattr__(self, "temps", temps)

    @property
    def width(self) -> int:
        return self.temps.shape[1]

    @property
    def height(self) -> int:
        return self.temps.shape[0]


def read_npy_frame(data: bytes, timestamp: float = 0.0) -> ThermalFrame:
    """Decode one thermal frame from NPY v1.0 bytes (C-order <f4/<f8 only)."""
    if len(data) < 10 or data[:6] != NPY_MAGIC:
        raise FormatError("missing NPY magic")
    major, minor = data[6], data[7]
    if (major, minor) != (1, 0):
        raise UnsupportedError(f"NPY version {major}.{minor} not supported (need 1.0)")
    header_end = 10 + int.from_bytes(data[8:10], "little")
    if len(data) < header_end:
        raise FormatError("truncated NPY header")
    header = _NPY_HEADER.fullmatch(data[10:header_end].decode("latin1"))
    if header is None:
        raise FormatError("NPY header is not a descr/fortran_order/shape dict")
    descr, fortran_order, shape = header.groups()
    if descr not in ("<f4", "<f8"):
        raise UnsupportedError(f"dtype {descr!r} not supported (need <f4 or <f8)")
    if fortran_order == "True":
        raise UnsupportedError("Fortran-order arrays not supported")
    dims = _NPY_2D_SHAPE.fullmatch(shape)
    if dims is None:
        raise UnsupportedError(f"need a 2-D shape of positive ints, got ({shape})")
    h, w = int(dims[1]), int(dims[2])
    itemsize = int(descr[2])
    expected = h * w * itemsize
    payload = data[header_end:header_end + expected]
    if len(payload) < expected:
        raise FormatError(f"payload truncated: need {expected} bytes, have {len(payload)}")
    temps = np.frombuffer(payload, dtype=np.dtype(descr)).reshape(h, w)
    return ThermalFrame(temps, timestamp)


def write_npy_frame(frame: ThermalFrame) -> bytes:
    """Encode a frame as numpy's own NPY v1.0 writer does (C-order <f8),
    the subset `read_npy_frame` reads; round-trips bit-exactly."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(frame.temps, dtype="<f8"),
                              version=(1, 0))
    return buf.getvalue()


def normalize_to_gray(frame: ThermalFrame, lo: float, hi: float) -> np.ndarray:
    """Map temperatures in [lo, hi] linearly onto a 2-D uint8 image, 0..255.

    Rounding is half-away-from-zero so outputs are bit-stable across
    platforms.
    """
    if lo >= hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    scaled = np.clip((frame.temps - lo) / (hi - lo), 0.0, 1.0) * 255.0
    return np.floor(scaled + 0.5).astype(np.uint8)


def auto_window(frame: ThermalFrame) -> tuple[float, float]:
    """Contrast window from the 2nd/98th temperature percentiles.

    Robust to hot outliers (equipment, beverages); degenerate frames get
    a fixed +/-0.5 C widening.
    """
    lo, hi = np.percentile(frame.temps, [2.0, 98.0])
    if lo == hi:
        return float(lo) - 0.5, float(lo) + 0.5
    return float(lo), float(hi)


def check_resolution(value) -> tuple[int, int]:
    """`value` as (width, height): two positive ints, bools refused."""
    w, h = value
    if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in (w, h)):
        raise ValueError(f"resolution must be two positive integers, got {value!r}")
    return w, h


@dataclass
class FrameEntry:
    path: str
    timestamp: float


@dataclass
class SequenceManifest:
    """Orders frame files in time and carries the nominal frame interval."""

    frames: list[FrameEntry] = field(default_factory=list)
    dt: float = 1.0
    resolution: tuple[int, int] | None = None  # (width, height)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        # keyed as the detection join keys them, so no two frames share a line
        keys = [time_key(f.timestamp) for f in self.frames]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValidationError("frame timestamps must be strictly increasing "
                                  "to the microsecond")


def load_manifest(path) -> SequenceManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "frames" not in doc:
        raise FormatError("manifest must be an object with a 'frames' list")
    try:
        frames = [FrameEntry(str(e["path"]), parse_time(e["t"])) for e in doc["frames"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad frame entry in manifest: {exc}") from exc
    try:
        dt = parse_number(doc.get("dt", 1.0))
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"manifest dt must be a number: {exc}") from exc
    resolution = None
    if doc.get("resolution") is not None:
        try:
            resolution = check_resolution(doc["resolution"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"manifest resolution must be [width, height]: {exc}") from exc
    return SequenceManifest(frames, dt, resolution)


def save_manifest(manifest: SequenceManifest, path) -> None:
    doc = {
        "dt": manifest.dt,
        "frames": [{"path": f.path, "t": f.timestamp} for f in manifest.frames],
    }
    if manifest.resolution is not None:
        doc["resolution"] = list(manifest.resolution)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_sequence(manifest: SequenceManifest, base_dir) -> Iterator[ThermalFrame]:
    """Read the manifest's frames one at a time, in order, as they are consumed.

    Every frame must have the manifest's declared resolution or, when it
    declares none, the first frame's.
    """
    base = Path(base_dir)
    expected = manifest.resolution
    for entry in manifest.frames:
        frame = read_npy_frame((base / entry.path).read_bytes(), entry.timestamp)
        size = (frame.width, frame.height)
        if expected is None:
            expected = size
        elif size != expected:
            source = "manifest" if manifest.resolution is not None else "first frame"
            raise ValidationError(f"{entry.path}: resolution {size[0]}x{size[1]} differs "
                                  f"from {source} {expected[0]}x{expected[1]}")
        yield frame
