"""Event data model, stream validation, frame binning, and the EVT1 byte format.

An event is a record (x, y, t, p): a pixel location, a timestamp in
seconds, and the polarity of the brightness change that fired it. Streams
carry the sensor geometry and a total duration so every record can be
checked against its bounds.

Binning converts a stream into a frame stack: a (D, H, W) uint8 array of
binary event frames. A frame cell is 1 when at least one event hit that
pixel inside the frame's time window; polarity is discarded. Frame k
covers t in [k*dt, (k+1)*dt) and exactly ceil(T/dt) frames are emitted,
empty ones included. An event with t exactly T is kept and lands in the
last frame. With a downscale factor f, an event at (x, y) sets cell
(y // f, x // f), which is the OR-pool of the sensor-resolution frames
over f x f blocks.

``write_evt1`` and ``read_evt1`` build and parse EVT1 bytes; the file
itself is written and read through ``ev2vox.artifacts``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import read, write
from .errors import ConfigError, DataError, FormatError

EVT1_MAGIC = b"E2VEVT1\x00"
# the widest and tallest sensor EVT1 stores: its pixel coordinates are u16
EVT1_MAX_SIZE = 0xFFFF

_HEADER_DTYPE = np.dtype([("m", "<u4"), ("n", "<u4"), ("t", "<f8"), ("i", "<u8")])
_RECORD_DTYPE = np.dtype(
    [("t", "<f8"), ("x", "<u2"), ("y", "<u2"), ("p", "<i1"), ("pad", "V3")]
)


@dataclass
class EventStream:
    """A validated, time-ordered event sequence with sensor geometry.

    Arrays are kept column-wise (t, x, y, p) rather than as a list of
    records.
    """

    sensor_width: int
    sensor_height: int
    duration: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class BinningConfig:
    """Frame binning settings.

    ``target_height``/``target_width`` request OR-pool downscaling of the
    binned frames; both must divide the sensor dimensions by the same
    integer factor. Leaving them None keeps the sensor resolution.
    """

    window: float
    target_height: int | None = None
    target_width: int | None = None

    def __post_init__(self):
        if not (self.window > 0.0):
            raise ConfigError(f"binning window must be positive, got {self.window}")
        if (self.target_height is None) != (self.target_width is None):
            raise ConfigError(
                "target_height and target_width must be given together"
            )
        if self.target_height is not None and min(self.target_height, self.target_width) < 1:
            raise ConfigError("target dimensions must be positive")

    def downscale_factor(self, sensor_width: int, sensor_height: int) -> int:
        """Integer factor mapping the sensor size to the target size."""
        if self.target_width is None:
            return 1
        if (
            sensor_width % self.target_width
            or sensor_height % self.target_height
            or sensor_width // self.target_width != sensor_height // self.target_height
        ):
            raise ConfigError(
                f"cannot map {sensor_width}x{sensor_height} frames onto "
                f"{self.target_width}x{self.target_height} with one integer factor"
            )
        return sensor_width // self.target_width


def from_arrays(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    p: np.ndarray,
    sensor_width: int,
    sensor_height: int,
    duration: float,
) -> EventStream:
    """Validate column arrays and wrap them in an EventStream.

    Checks every stream invariant: a sensor of at least 1x1 pixels, a
    finite duration T >= 0, finite and monotone timestamps, in-bounds
    coordinates, polarity in {-1, +1}, timestamps within [0, T].
    """
    if not (sensor_width >= 1 and sensor_height >= 1):
        raise DataError(f"a {sensor_width}x{sensor_height} sensor has no pixel")
    if not (math.isfinite(duration) and duration >= 0):
        raise DataError(f"duration {duration} is not a finite time >= 0")
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x)
    y = np.asarray(y)
    p = np.asarray(p)
    if not (t.shape == x.shape == y.shape == p.shape) or t.ndim != 1:
        raise DataError("event columns must be equal-length 1-D arrays")

    if len(t):
        if not np.all(np.isfinite(t)):
            i = int(np.argmin(np.isfinite(t)))
            raise DataError(f"event {i} has non-finite timestamp {t[i]}")
        dt = np.diff(t)
        if np.any(dt < 0):
            i = int(np.argmax(dt < 0))
            raise DataError(
                f"timestamp decreases at index {i + 1}: {t[i]} -> {t[i + 1]}"
            )
        xi = x.astype(np.int64)
        yi = y.astype(np.int64)
        bad = (xi < 0) | (xi >= sensor_width) | (yi < 0) | (yi >= sensor_height)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise DataError(
                f"event {i} at ({xi[i]}, {yi[i]}) outside "
                f"{sensor_width}x{sensor_height} sensor"
            )
        pi = p.astype(np.int64)
        if np.any((pi != 1) & (pi != -1)):
            i = int(np.argmax((pi != 1) & (pi != -1)))
            raise DataError(f"event {i} has polarity {pi[i]}, expected +1 or -1")
        if np.any(t < 0) or np.any(t > duration):
            bad_t = (t < 0) | (t > duration)
            i = int(np.argmax(bad_t))
            raise DataError(
                f"event {i} at t={t[i]} outside [0, {duration}]"
            )

    return EventStream(
        sensor_width=int(sensor_width),
        sensor_height=int(sensor_height),
        duration=float(duration),
        t=t,
        x=x.astype(np.uint16),
        y=y.astype(np.uint16),
        p=p.astype(np.int8),
    )


def bin_to_frames(stream: EventStream, cfg: BinningConfig) -> np.ndarray:
    """Accumulate a stream into a (D, H/f, W/f) uint8 frame stack of
    ceil(T/dt) frames, f being the config's downscale factor: each event
    sets its pooled cell, so the sensor-resolution stack is never built."""
    h, w = stream.sensor_height, stream.sensor_width
    f = cfg.downscale_factor(w, h)
    depth = stream.duration / cfg.window
    if depth * (h // f) * (w // f) >= np.iinfo(np.intp).max:
        raise ConfigError(f"binning.window {cfg.window!r} cuts the stream's {stream.duration!r}"
                          f" s into {depth:.4g} frames, more than one array can hold")
    depth = math.ceil(depth)
    if depth == 0 and len(stream) > 0:
        depth = 1
    try:
        frames = np.zeros((depth, h // f, w // f), dtype=np.uint8)
    except MemoryError as exc:
        raise ConfigError(f"binning.window {cfg.window!r} cuts the stream's {stream.duration!r}"
                          f" s into {depth} frames of {h // f}x{w // f}, a stack too large to"
                          " allocate") from exc
    if len(stream):
        k = np.floor_divide(stream.t, cfg.window).astype(np.int64)
        np.clip(k, 0, depth - 1, out=k)
        frames[k, stream.y.astype(np.int64) // f, stream.x.astype(np.int64) // f] = 1
    return frames


def write_evt1(stream: EventStream, path: str | os.PathLike) -> None:
    """Serialize a stream to the EVT1 binary format.

    Layout: magic ``E2VEVT1\\0``; little-endian header u32 M, u32 N,
    f64 T, u64 I; then I records of (f64 t, u16 x, u16 y, i8 p, 3 zero
    pad bytes).
    """
    if max(stream.sensor_width, stream.sensor_height) > EVT1_MAX_SIZE:
        raise FormatError("EVT1 stores pixel coordinates as u16")
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["m"] = stream.sensor_width
    header["n"] = stream.sensor_height
    header["t"] = stream.duration
    header["i"] = len(stream)
    records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = stream.p
    write(path, EVT1_MAGIC, header.data, records.data)


def read_evt1(path: str | os.PathLike) -> EventStream:
    """Read and fully validate an EVT1 file; every error names the file."""
    blob = read(path, EVT1_MAGIC, _HEADER_DTYPE.itemsize, "EVT1")
    header = np.frombuffer(
        blob, dtype=_HEADER_DTYPE, count=1, offset=len(EVT1_MAGIC)
    )[0]
    if max(header["m"], header["n"]) > EVT1_MAX_SIZE:
        raise FormatError(f"{path}: a {header['m']}x{header['n']} sensor, larger than EVT1 stores")
    count = int(header["i"])
    body = blob[len(EVT1_MAGIC) + _HEADER_DTYPE.itemsize :]
    expected = count * _RECORD_DTYPE.itemsize
    if len(body) != expected:
        raise FormatError(
            f"{path}: expected {expected} record bytes for {count} events, "
            f"found {len(body)}"
        )
    records = np.frombuffer(body, dtype=_RECORD_DTYPE, count=count)
    try:
        return from_arrays(
            records["t"].copy(),
            records["x"].copy(),
            records["y"].copy(),
            records["p"].copy(),
            int(header["m"]),
            int(header["n"]),
            float(header["t"]),
        )
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
