import gc
import json

import numpy as np
import pytest

from wardflow.errors import FormatError, UnsupportedError, ValidationError
from wardflow.frames import (FrameEntry, SequenceManifest, ThermalFrame,
                             auto_window, load_manifest, load_sequence,
                             normalize_to_gray, read_npy_frame, save_manifest,
                             write_npy_frame)


def npy_bytes(arr, descr=None, fortran=False, version=(1, 0)):
    """Hand-rolled NPY encoder so the parser is tested independently."""
    arr = np.asarray(arr)
    descr = descr or ("<f8" if arr.dtype == np.float64 else "<f4")
    header = f"{{'descr': '{descr}', 'fortran_order': {fortran}, 'shape': {arr.shape}, }}"
    header = header + " " * (63 - (10 + len(header)) % 64) + "\n"
    out = b"\x93NUMPY" + bytes(version)
    out += len(header).to_bytes(2, "little") + header.encode()
    out += arr.astype(descr).tobytes(order="F" if fortran else "C")
    return out


class TestReadNpyFrame:
    def test_minimal_2x2(self):
        frame = read_npy_frame(npy_bytes(np.array([[20.0, 21.0], [22.0, 23.0]])))
        assert (frame.width, frame.height) == (2, 2)
        assert frame.temps.ravel().tolist() == [20.0, 21.0, 22.0, 23.0]

    def test_f4_supported(self):
        frame = read_npy_frame(npy_bytes(np.array([[20.0, 21.0]], dtype=np.float32)))
        assert frame.temps.dtype == np.float64
        assert frame.temps[0, 1] == 21.0

    def test_fortran_order_rejected(self):
        with pytest.raises(UnsupportedError):
            read_npy_frame(npy_bytes(np.ones((3, 4)) * 20, fortran=True))

    def test_nan_rejected(self):
        arr = np.full((2, 2), 20.0)
        arr[0, 1] = np.nan
        with pytest.raises(ValidationError):
            read_npy_frame(npy_bytes(arr))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            read_npy_frame(npy_bytes(np.full((2, 2), 500.0)))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_npy_frame(b"\x93NUMPZ" + b"\x00" * 20)

    def test_version_2_rejected(self):
        with pytest.raises(UnsupportedError):
            read_npy_frame(npy_bytes(np.ones((2, 2)) * 20, version=(2, 0)))

    def test_int_dtype_rejected(self):
        with pytest.raises(UnsupportedError):
            read_npy_frame(npy_bytes(np.ones((2, 2)) * 20, descr="<i4"))

    def test_big_endian_rejected(self):
        with pytest.raises(UnsupportedError):
            read_npy_frame(npy_bytes(np.ones((2, 2)) * 20, descr=">f8"))

    def test_1d_rejected(self):
        with pytest.raises(UnsupportedError):
            read_npy_frame(npy_bytes(np.array([20.0, 21.0])))

    def test_truncated_payload(self):
        data = npy_bytes(np.ones((4, 4)) * 20)
        with pytest.raises(FormatError):
            read_npy_frame(data[:-8])

    def test_leaves_no_reference_cycles(self):
        data = npy_bytes(np.full((3, 4), 20.0))
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                read_npy_frame(data)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            temps = rng.uniform(15.0, 40.0, size=(12, 9))
            again = read_npy_frame(write_npy_frame(ThermalFrame(temps)))
            assert np.array_equal(again.temps, temps)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 100_000), (100_000, 1), (288, 384),
                                       (72, 96), (1, 7), (7, 1), (10, 10), (999, 1001)])
    def test_writes_the_reference_bytes(self, shape):
        # numpy writes the frames; this holds its writer to the layout the
        # strict reader parses, whatever order or width the grid came in
        temps = np.random.default_rng(sum(shape)).uniform(-20.0, 120.0, size=shape)
        for grid in (temps, np.asfortranarray(temps), temps.astype(np.float32)):
            frame = ThermalFrame(grid)
            assert write_npy_frame(frame) == npy_bytes(frame.temps)

    def test_writes_the_reference_bytes_for_random_shapes(self):
        rng = np.random.default_rng(20)
        for shape in rng.integers(1, 600, size=(8, 2)):
            frame = ThermalFrame(rng.uniform(15.0, 40.0, size=tuple(shape)))
            assert write_npy_frame(frame) == npy_bytes(frame.temps)

    def test_roundtrip_against_numpy_reference(self):
        # Written frames must load with numpy's own reader too.
        import io
        temps = np.random.default_rng(1).uniform(18, 39, size=(6, 8))
        data = write_npy_frame(ThermalFrame(temps))
        assert np.array_equal(np.load(io.BytesIO(data)), temps)


class TestNormalizeToGray:
    def test_endpoints(self):
        frame = ThermalFrame(np.array([[20.0, 40.0]]))
        gray = normalize_to_gray(frame, 20.0, 40.0)
        assert gray.dtype == np.uint8
        assert gray.tolist() == [[0, 255]]

    def test_half_rounds_away_from_zero(self):
        frame = ThermalFrame(np.array([[30.0]]))
        assert normalize_to_gray(frame, 20.0, 40.0)[0, 0] == 128

    def test_clamping_outside_window(self):
        frame = ThermalFrame(np.array([[5.0, 90.0]]))
        gray = normalize_to_gray(frame, 20.0, 40.0)
        assert gray.tolist() == [[0, 255]]

    def test_constant_frame_uniform(self):
        frame = ThermalFrame(np.full((4, 4), 25.0))
        gray = normalize_to_gray(frame, 24.9, 25.1)
        assert len(np.unique(gray)) == 1

    def test_lo_ge_hi_rejected(self):
        frame = ThermalFrame(np.full((2, 2), 25.0))
        with pytest.raises(ValueError):
            normalize_to_gray(frame, 30.0, 30.0)

    def test_monotone_in_temperature(self):
        rng = np.random.default_rng(3)
        temps = np.sort(rng.uniform(-10, 100, size=64)).reshape(8, 8)
        gray = normalize_to_gray(ThermalFrame(temps), 10.0, 50.0)
        assert np.all(np.diff(gray.ravel().astype(int)) >= 0)


class TestAutoWindow:
    def test_constant_widening(self):
        assert auto_window(ThermalFrame(np.full((5, 5), 25.0))) == (24.5, 25.5)

    def test_uniform_0_to_99(self):
        temps = np.arange(100, dtype=float).reshape(10, 10)
        lo, hi = auto_window(ThermalFrame(temps))
        assert abs(lo - 2.0) <= 1.0 and abs(hi - 98.0) <= 1.0

    def test_hot_outlier_excluded(self):
        temps = np.full(1000, 20.0)
        temps[123] = 110.0
        lo, hi = auto_window(ThermalFrame(temps.reshape(25, 40)))
        assert hi < 25.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        temps = rng.uniform(15, 45, size=120)
        shuffled = rng.permutation(temps)
        a = auto_window(ThermalFrame(temps.reshape(10, 12)))
        b = auto_window(ThermalFrame(shuffled.reshape(12, 10)))
        assert a == b


class TestManifest:
    def test_roundtrip(self, tmp_path):
        manifest = SequenceManifest(
            [FrameEntry("a.npy", 0.0), FrameEntry("b.npy", 1.0)],
            dt=1.0, resolution=(384, 288))
        save_manifest(manifest, tmp_path / "m.json")
        again = load_manifest(tmp_path / "m.json")
        assert again == manifest

    def test_timestamps_must_increase(self):
        with pytest.raises(ValidationError):
            SequenceManifest([FrameEntry("a.npy", 1.0), FrameEntry("b.npy", 1.0)])
        # to the microsecond the detection join keys them on, so two frames
        # never both count one detection line
        with pytest.raises(ValidationError):
            SequenceManifest([FrameEntry("a.npy", 1.0), FrameEntry("b.npy", 1.0000001)])
        SequenceManifest([FrameEntry("a.npy", 1.0), FrameEntry("b.npy", 1.000001)])

    @pytest.mark.parametrize("t", ["1", True])
    def test_frame_time_must_be_a_json_number(self, tmp_path, t):
        doc = {"frames": [{"path": "a.npy", "t": 0.0}, {"path": "b.npy", "t": t}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "m.json")

    def test_bad_json_is_format_error(self, tmp_path):
        (tmp_path / "m.json").write_text("{nope")
        with pytest.raises(FormatError):
            load_manifest(tmp_path / "m.json")

    def test_load_sequence_mixed_resolution_rejected(self, tmp_path):
        (tmp_path / "a.npy").write_bytes(write_npy_frame(ThermalFrame(np.full((4, 4), 20.0))))
        (tmp_path / "b.npy").write_bytes(write_npy_frame(ThermalFrame(np.full((4, 5), 20.0))))
        manifest = SequenceManifest([FrameEntry("a.npy", 0.0), FrameEntry("b.npy", 1.0)])
        with pytest.raises(ValidationError):
            list(load_sequence(manifest, tmp_path))

    def test_load_sequence_applies_timestamps(self, tmp_path):
        (tmp_path / "a.npy").write_bytes(write_npy_frame(ThermalFrame(np.full((4, 4), 20.0))))
        manifest = SequenceManifest([FrameEntry("a.npy", 3.5)])
        frames = list(load_sequence(manifest, tmp_path))
        assert frames[0].timestamp == 3.5
