import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ev2vox import events as ev
from ev2vox.config import from_json
from ev2vox.errors import ConfigError, DataError, FormatError


def make_stream(ts, xs=None, ys=None, ps=None, m=16, n=16, duration=1.0):
    k = len(ts)
    xs = [0] * k if xs is None else xs
    ys = [0] * k if ys is None else ys
    ps = [1] * k if ps is None else ps
    return ev.from_arrays(
        np.asarray(ts, dtype=float), xs, ys, ps, m, n, duration
    )


class TestValidateStream:
    def test_empty_stream_is_valid(self):
        s = make_stream([], m=256, n=256, duration=0.5)
        assert len(s) == 0
        assert s.sensor_width == 256 and s.duration == 0.5

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(DataError, match="timestamp decreases at index 1"):
            make_stream([0.1, 0.05], m=8, n=8, duration=1.0)

    def test_equal_timestamps_allowed(self):
        s = make_stream([0.2, 0.2, 0.2])
        assert len(s) == 3

    def test_coordinate_bounds(self):
        with pytest.raises(DataError, match="outside 8x8 sensor"):
            make_stream([0.0], [8], [0], m=8, n=8, duration=1.0)
        with pytest.raises(DataError, match="outside 8x8 sensor"):
            make_stream([0.0], [0], [-1], m=8, n=8, duration=1.0)

    def test_polarity_domain(self):
        with pytest.raises(DataError, match=r"expected \+1 or -1"):
            make_stream([0.0], [0], [0], [0], m=8, n=8, duration=1.0)
        with pytest.raises(DataError, match=r"expected \+1 or -1"):
            make_stream([0.0], [0], [0], [2], m=8, n=8, duration=1.0)

    def test_non_finite_timestamps_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DataError, match="event 1 has non-finite timestamp"):
                make_stream([0.1, bad, 0.2])

    def test_timestamp_range(self):
        with pytest.raises(DataError, match=r"outside \[0, 1.0\]"):
            make_stream([1.5], m=8, n=8, duration=1.0)
        with pytest.raises(DataError, match=r"outside \[0, 1.0\]"):
            make_stream([-0.1], m=8, n=8, duration=1.0)

    def test_random_uniform_times_within_duration(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0.0, 0.5, size=1000))
        x = rng.integers(0, 256, size=1000)
        y = rng.integers(0, 256, size=1000)
        p = rng.choice([-1, 1], size=1000)
        s = ev.from_arrays(t, x, y, p, 256, 256, 0.5)
        assert len(s) == 1000
        assert s.t[0] == pytest.approx(t[0])

    def test_order_preserved(self):
        s = make_stream([0.1, 0.1], [1, 3], [2, 4], [1, -1], m=8, n=8, duration=1.0)
        assert s.x.tolist() == [1, 3]
        assert s.p.tolist() == [1, -1]


class TestBinningConfig:
    def test_zero_window_rejected(self):
        with pytest.raises(ConfigError, match="binning window must be positive"):
            ev.BinningConfig(window=0.0)
        with pytest.raises(ConfigError, match="binning window must be positive"):
            ev.BinningConfig(window=-0.5)

    def test_unknown_mode_rejected(self):
        # frames are always uniform windows; a config that names a mode is refused
        with pytest.raises(ConfigError, match="unknown key 'binning.mode'"):
            from_json(ev.BinningConfig, {"window": 0.1, "mode": "uniform"}, "binning")

    def test_target_dims_must_divide(self):
        cfg = ev.BinningConfig(window=0.1, target_height=100, target_width=100)
        with pytest.raises(ConfigError, match="with one integer factor"):
            cfg.downscale_factor(512, 512)

    def test_target_dims_factor(self):
        cfg = ev.BinningConfig(window=0.1, target_height=256, target_width=256)
        assert cfg.downscale_factor(512, 512) == 2


class TestUniformBinning:
    def test_frame_count_at_full_scale_settings(self):
        for count in (0, 1):
            ts = [0.25] * count
            s = make_stream(ts, m=256, n=256, duration=0.5)
            stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.005))
            assert len(stack) == 100

    def test_single_event_lands_in_frame_zero(self):
        s = make_stream([0.001], [3], [4], m=16, n=16, duration=0.5)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.005))
        assert stack[0, 4, 3] == 1
        assert stack.sum() == 1

    def test_opposite_polarities_same_cell_give_one(self):
        s = make_stream([0.001, 0.002], [2, 2], [2, 2], [1, -1], m=8, n=8, duration=0.01)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.005))
        assert stack[0, 2, 2] == 1
        assert stack.sum() == 1

    def test_boundary_event_joins_upper_frame(self):
        # windows are half-open: t = k*dt belongs to frame k
        s = make_stream([0.25], duration=1.0)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.25))
        assert len(stack) == 4
        assert stack[1, 0, 0] == 1

    def test_final_timestamp_clamps_to_last_frame(self):
        s = make_stream([1.0], duration=1.0)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.25))
        assert stack[3, 0, 0] == 1

    def test_empty_windows_emitted(self):
        s = make_stream([0.9], duration=1.0)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=0.25))
        assert len(stack) == 4
        assert stack[:3].sum() == 0

    @given(
        n=st.integers(0, 50),
        window=st.sampled_from([0.01, 0.05, 0.125, 0.3]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_event_counted_once(self, n, window, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 1.0, size=n))
        x = rng.integers(0, 16, size=n)
        y = rng.integers(0, 16, size=n)
        s = ev.from_arrays(t, x, y, np.ones(n), 16, 16, 1.0)
        stack = ev.bin_to_frames(s, ev.BinningConfig(window=window))
        assert len(stack) == math.ceil(1.0 / window)
        # frame totals equal distinct pixels hit per window
        depth = len(stack)
        k = np.minimum((t // window).astype(int), depth - 1)
        for f in range(depth):
            hit = {(int(a), int(b)) for a, b in zip(x[k == f], y[k == f])}
            assert stack[f].sum() == len(hit)
        assert set(np.unique(stack)) <= {0, 1}


def block_max(frames, f):
    """Oracle for OR-pooling: each output cell is the max of its f x f block."""
    d, h, w = frames.shape
    out = np.zeros((d, h // f, w // f), dtype=frames.dtype)
    for k in range(d):
        for i in range(h // f):
            for j in range(w // f):
                out[k, i, j] = frames[k, f * i : f * i + f, f * j : f * j + f].max()
    return out


def pooled(side, f, window=0.1):
    return ev.BinningConfig(window=window, target_height=side // f, target_width=side // f)


class TestDownscale:
    """Binning with target dimensions pools as it scatters; these compare it
    with the block max of binning at the sensor resolution."""

    def test_single_bit_survives(self):
        s = make_stream([0.01], [0], [1], m=2, n=2, duration=0.05)
        out = ev.bin_to_frames(s, pooled(2, 2, window=0.05))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 1

    def test_all_zero_stays_zero(self):
        s = make_stream([], m=512, n=512, duration=0.1)
        out = ev.bin_to_frames(s, pooled(512, 2, window=0.05))
        assert out.shape == (2, 256, 256)
        assert out.sum() == 0

    @given(
        n=st.integers(0, 60),
        f=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_block_max_oracle(self, n, f, seed):
        rng = np.random.default_rng(seed)
        # half the events sit on the first or last pixel of a block
        edges = np.concatenate([np.arange(0, 16, f), np.arange(f - 1, 16, f)])
        on_edge = rng.random(n) < 0.5
        x = np.where(on_edge, rng.choice(edges, n), rng.integers(0, 16, n))
        y = np.where(on_edge, rng.choice(edges, n), rng.integers(0, 16, n))
        t = np.sort(rng.uniform(0.0, 0.5, n))
        s = ev.from_arrays(t, x, y, rng.choice([-1, 1], n), 16, 16, 0.5)
        full = ev.bin_to_frames(s, ev.BinningConfig(window=0.1))
        out = ev.bin_to_frames(s, pooled(16, f))
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, block_max(full, f))

    def test_composition(self):
        rng = np.random.default_rng(5)
        n = 200
        t = np.sort(rng.uniform(0.0, 0.5, n))
        s = ev.from_arrays(t, rng.integers(0, 16, n), rng.integers(0, 16, n),
                           np.ones(n), 16, 16, 0.5)
        twice = block_max(ev.bin_to_frames(s, pooled(16, 2)), 2)
        once = ev.bin_to_frames(s, pooled(16, 4))
        np.testing.assert_array_equal(twice, once)

    def test_binning_applies_config_target(self):
        s = make_stream([0.01], [7], [3], m=16, n=16, duration=0.1)
        cfg = ev.BinningConfig(window=0.05, target_height=8, target_width=8)
        stack = ev.bin_to_frames(s, cfg)
        assert stack.shape == (2, 8, 8)
        assert stack[0, 1, 3] == 1


# sha256 of the frame bytes of one seeded 64x48 stream, 3000 events over
# 0.5 s, binned at 10 ms; binning uses no BLAS, so these hold on any host
BINNING_DIGESTS = [
    pytest.param(ev.BinningConfig(window=0.01), (50, 48, 64),
                 "3c889abcb19fe5a54bedd2c6d9b9c51b71f1863983fce1ea70ecaf4f878f18f7", id="uniform"),
    pytest.param(ev.BinningConfig(window=0.01, target_height=12, target_width=16), (50, 12, 16),
                 "ab59814f877618a1384de76d3297c9b2ccfccf52571fbe791927629084e38ba5", id="downscaled"),
]


@pytest.mark.parametrize("cfg,shape,digest", BINNING_DIGESTS)
def test_binning_bytes_are_pinned(cfg, shape, digest):
    rng = np.random.default_rng(2024)
    n = 3000
    t = np.sort(rng.uniform(0.0, 0.5, n))
    x = rng.integers(0, 64, n)
    y = rng.integers(0, 48, n)
    p = rng.choice([-1, 1], n)
    frames = ev.bin_to_frames(ev.from_arrays(t, x, y, p, 64, 48, 0.5), cfg)
    assert frames.shape == shape and frames.dtype == np.uint8
    assert frames.flags.c_contiguous
    assert hashlib.sha256(frames.tobytes()).hexdigest() == digest


class TestEvt1Format:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 257
        t = np.sort(rng.uniform(0, 0.5, size=n))
        x = rng.integers(0, 64, size=n)
        y = rng.integers(0, 48, size=n)
        p = rng.choice([-1, 1], size=n)
        s = ev.from_arrays(t, x, y, p, 64, 48, 0.5)
        path = tmp_path / "a.evt1"
        ev.write_evt1(s, path)
        r = ev.read_evt1(path)
        assert r.sensor_width == 64 and r.sensor_height == 48
        assert r.duration == 0.5
        np.testing.assert_array_equal(r.t, s.t)
        np.testing.assert_array_equal(r.x, s.x)
        np.testing.assert_array_equal(r.y, s.y)
        np.testing.assert_array_equal(r.p, s.p)

    def test_empty_round_trip(self, tmp_path):
        s = make_stream([], m=256, n=256, duration=0.5)
        path = tmp_path / "e.evt1"
        ev.write_evt1(s, path)
        assert len(ev.read_evt1(path)) == 0
        assert path.stat().st_size == 32

    def test_record_layout(self, tmp_path):
        s = make_stream([0.125], [5], [6], [-1], m=16, n=16, duration=1.0)
        path = tmp_path / "one.evt1"
        ev.write_evt1(s, path)
        blob = path.read_bytes()
        assert blob[:8] == b"E2VEVT1\x00"
        assert len(blob) == 32 + 16
        assert np.frombuffer(blob, "<u4", 1, offset=8)[0] == 16
        assert np.frombuffer(blob, "<u8", 1, offset=24)[0] == 1
        assert np.frombuffer(blob, "<f8", 1, offset=32)[0] == 0.125
        assert np.frombuffer(blob, "<u2", 1, offset=40)[0] == 5
        assert np.frombuffer(blob, "<u2", 1, offset=42)[0] == 6
        assert np.frombuffer(blob, "<i1", 1, offset=44)[0] == -1
        assert blob[45:48] == b"\x00\x00\x00"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.evt1"
        path.write_bytes(b"NOTEVT1\x00" + b"\x00" * 24)
        with pytest.raises(FormatError):
            ev.read_evt1(path)

    def test_sensor_size_limit(self, tmp_path):
        path = tmp_path / "wide.evt1"
        ev.write_evt1(make_stream([], m=ev.EVT1_MAX_SIZE, n=1, duration=0.1), path)
        assert ev.read_evt1(path).sensor_width == ev.EVT1_MAX_SIZE
        for m, n in ((ev.EVT1_MAX_SIZE + 1, 1), (1, ev.EVT1_MAX_SIZE + 1)):
            with pytest.raises(FormatError, match="u16"):
                ev.write_evt1(make_stream([], m=m, n=n, duration=0.1), path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = np.uint32(ev.EVT1_MAX_SIZE + 1).tobytes()  # the sensor height
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{path}: a 65535x65536 sensor"):
            ev.read_evt1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        s = make_stream([], m=8, n=8, duration=0.1)
        path = tmp_path / "t.evt1"
        ev.write_evt1(s, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            ev.read_evt1(path)

    def test_truncated_rejected(self, tmp_path):
        s = make_stream([0.0], m=8, n=8, duration=0.1)
        path = tmp_path / "x.evt1"
        ev.write_evt1(s, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            ev.read_evt1(path)

    def test_nan_timestamp_rejected_naming_file_and_index(self, tmp_path):
        s = make_stream([0.1, 0.15, 0.2], [0, 1, 2], [0, 0, 0], m=8, n=8, duration=0.5)
        path = tmp_path / "n.evt1"
        ev.write_evt1(s, path)
        blob = bytearray(path.read_bytes())
        blob[32 + 16:32 + 24] = np.float64(np.nan).tobytes()  # record 1's t
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as exc:
            ev.read_evt1(path)
        assert str(exc.value) == f"{path}: event 1 has non-finite timestamp nan"

    def test_write_determinism(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.sort(rng.uniform(0, 1, 50))
        s = ev.from_arrays(
            t,
            rng.integers(0, 32, 50),
            rng.integers(0, 32, 50),
            rng.choice([-1, 1], 50),
            32,
            32,
            1.0,
        )
        p1, p2 = tmp_path / "1.evt1", tmp_path / "2.evt1"
        ev.write_evt1(s, p1)
        ev.write_evt1(s, p2)
        assert p1.read_bytes() == p2.read_bytes()
