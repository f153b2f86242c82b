import numpy as np
import pytest
from scipy import ndimage

import wardflow.pipeline
from oracles import flow_per_pair, polyfit_neighborhood, raster_mask
from wardflow.boxes import BoundingBox, Detection, FrameDetections, ObjectClass, pixel_span
from wardflow.flow import (FlowField, FlowParams, _dependency_cones, estimate_flow,
                           expand_pyramid, magnitude_stats, mask_worker_regions, poly_expand)
from wardflow.frames import ThermalFrame
from wardflow.pipeline import SessionConfig, analyze_session


def smooth_texture(seed, shape=(64, 64), sigma=3.0):
    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.normal(size=shape), sigma)
    img -= img.min()
    return img / img.max() * 255.0


def shifted_pair(seed, shift, size=64, margin=8):
    # crop both views from one larger texture to avoid wrap-around seams
    big = smooth_texture(seed, shape=(size + 2 * margin,) * 2)
    sx, sy = shift
    img = big[margin:margin + size, margin:margin + size]
    moved = big[margin - sy:margin - sy + size, margin - sx:margin - sx + size]
    return img, moved


def whole(shape):
    """The pixel span of a whole frame."""
    return slice(0, shape[0]), slice(0, shape[1])


def flow_between(img, moved, params=FlowParams()):
    """The whole-frame flow between two images, each expanded once as a pyramid."""
    return estimate_flow(expand_pyramid(img, params), expand_pyramid(moved, params), params,
                         whole(np.shape(img)))


class TestPolyExpand:
    def test_constant_image(self):
        e = poly_expand(np.full((16, 16), 42.0))
        for coef in (e.a11, e.a12, e.a22, e.bx, e.by):
            assert np.abs(coef).max() < 1e-9
        assert np.abs(e.c - 42.0).max() < 1e-9

    def test_linear_ramp(self):
        X = np.tile(np.arange(20, dtype=float), (20, 1))
        e = poly_expand(3.0 * X)
        interior = (slice(4, -4), slice(4, -4))
        assert np.abs(e.bx[interior] - 3.0).max() < 1e-6
        assert np.abs(e.by[interior]).max() < 1e-6
        assert np.abs(e.a11[interior]).max() < 1e-6

    def test_quadratic(self):
        X = np.tile(np.arange(20, dtype=float), (20, 1))
        e = poly_expand(X * X)
        interior = (slice(4, -4), slice(4, -4))
        assert np.abs(e.a11[interior] - 1.0).max() < 1e-3

    def test_matches_dense_least_squares_oracle(self):
        img = smooth_texture(42, shape=(24, 24))
        e = poly_expand(img, poly_n=5, poly_sigma=1.1)
        for row, col in [(6, 6), (11, 15), (17, 8)]:
            c, bx, by, a11, a22, a12 = polyfit_neighborhood(img, row, col, 5, 1.1)
            assert e.c[row, col] == pytest.approx(c, abs=1e-8)
            assert e.bx[row, col] == pytest.approx(bx, abs=1e-8)
            assert e.by[row, col] == pytest.approx(by, abs=1e-8)
            assert e.a11[row, col] == pytest.approx(a11, abs=1e-8)
            assert e.a22[row, col] == pytest.approx(a22, abs=1e-8)
            assert e.a12[row, col] == pytest.approx(a12, abs=1e-8)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            poly_expand(np.zeros((3, 10)), poly_n=5)


class TestEstimateFlow:
    def test_identical_frames_zero_flow(self):
        img = smooth_texture(0)
        flow = flow_between(img, img)
        assert flow.magnitude().max() < 0.05

    def test_integer_shift_recovered(self):
        central = (slice(8, 56), slice(8, 56))
        for seed, shift in [(1, (3, 0)), (2, (-2, 1)), (3, (4, -3)), (4, (-1, -4))]:
            img, moved = shifted_pair(seed, shift)
            flow = flow_between(img, moved)
            epe = np.hypot(flow.dx[central] - shift[0],
                           flow.dy[central] - shift[1]).mean()
            assert epe < 0.5, f"seed={seed} shift={shift} epe={epe}"

    def test_constant_frames_fall_back_to_zero(self):
        img = np.full((32, 32), 128.0)
        flow = flow_between(img, img + 1.0)
        assert flow.magnitude().max() == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flow_between(np.zeros((32, 32)), np.zeros((32, 33)))

    def test_constant_frames_give_exactly_zero_flow(self):
        # every pixel is degenerate, so every level keeps the zero start
        flow = flow_between(np.full((32, 32), 50.0), np.full((32, 32), 50.0))
        assert np.array_equal(flow.dx, np.zeros((32, 32)))
        assert np.array_equal(flow.dy, np.zeros((32, 32)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FlowParams(window=4)
        with pytest.raises(ValueError):
            FlowParams(pyramid_scale=1.5)
        with pytest.raises(ValueError):
            FlowParams(poly_n=6)
        with pytest.raises(ValueError):
            FlowParams(iterations=0)


class TestPyramidReuse:
    """Expanding each frame once must not change a single bit of the flow."""

    PARAMS = [FlowParams(), FlowParams(pyramid_levels=4, window=7, iterations=2,
                                       poly_n=7, poly_sigma=1.5)]

    @pytest.mark.parametrize("shape", [(64, 64), (18, 23), (9, 40)])
    @pytest.mark.parametrize("params", PARAMS)
    def test_pyramids_match_images_and_per_pair_reference(self, shape, params):
        # (18, 23) and (9, 40) drop pyramid levels that cannot hold poly_n
        rng = np.random.default_rng(11)
        a = smooth_texture(12, shape=shape, sigma=2.0)
        b = np.roll(a, (1, 2), axis=(0, 1)) + rng.normal(size=shape)
        ref_dx, ref_dy = flow_per_pair(a, b, params)
        flow = flow_between(a, b, params)
        assert np.array_equal(flow.dx, ref_dx)
        assert np.array_equal(flow.dy, ref_dy)

    def test_level_dropping(self):
        assert len(expand_pyramid(np.zeros((64, 64)))) == 3
        assert len(expand_pyramid(np.zeros((18, 23)))) == 2
        assert len(expand_pyramid(np.zeros((9, 40)))) == 1

    def test_pyramid_shape_mismatch_rejected(self):
        params = FlowParams()
        with pytest.raises(ValueError):
            estimate_flow(expand_pyramid(np.zeros((32, 32))),
                          expand_pyramid(np.zeros((32, 33))), params, whole((32, 32)))
        with pytest.raises(ValueError):  # pyramids built with different level counts
            estimate_flow(expand_pyramid(np.zeros((32, 32))),
                          expand_pyramid(np.zeros((32, 32)), FlowParams(pyramid_levels=2)),
                          params, whole((32, 32)))


class TestDependencyCone:
    """The flow over a span has the bits of the whole-frame flow there."""

    @staticmethod
    def spans(rng, shape, params):
        h, w = shape
        halo = params.iterations * (params.window // 2)

        def box(r, c, bh, bw):  # clipped to the frame
            return slice(r, min(h, r + bh)), slice(c, min(w, c + bw))

        def size(n):
            return int(rng.integers(1, n + 1))

        r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
        small = int(rng.integers(1, halo))  # every halo here is at least 2 px
        bh, bw = size(h), size(w)
        return [
            box(r, c, 1, 1),
            box(r, c, small, small),
            box(r, c, size(h), size(w)),
            box(0, 0, bh, bw),                          # top-left corner
            (slice(h - bh, h), slice(w - bw, w)),       # bottom-right corner
            box(r, 0, size(h), 1),                      # left edge
            (slice(h - 1, h), slice(c, min(w, c + bw))),  # bottom edge
            whole(shape),
        ]

    def test_span_matches_whole_frame(self):
        rng = np.random.default_rng(23)
        inner_coarse_cones = 0
        for case in range(30):
            shape = (int(rng.integers(10, 100)), int(rng.integers(10, 120)))
            params = FlowParams(pyramid_levels=int(rng.integers(1, 5)),
                                window=int(rng.choice(np.arange(5, 22, 2))),
                                iterations=int(rng.integers(1, 5)))
            a = smooth_texture(case, shape=shape, sigma=2.0)
            b = np.roll(a, tuple(rng.integers(-3, 4, size=2)), axis=(0, 1)) + rng.normal(size=shape)
            prev_pyr, next_pyr = expand_pyramid(a, params), expand_pyramid(b, params)
            full = estimate_flow(prev_pyr, next_pyr, params, whole(shape))
            shapes = [e.c.shape for e in prev_pyr]
            for span in self.spans(rng, shape, params):
                flow = estimate_flow(prev_pyr, next_pyr, params, span)
                assert flow.dx.shape == full.dx[span].shape
                assert np.array_equal(flow.dx, full.dx[span]), (shape, params, span)
                assert np.array_equal(flow.dy, full.dy[span]), (shape, params, span)
                cones = _dependency_cones(shapes, span, params)
                inner_coarse_cones += any(c.start > 0 or c.stop < n for cone, level in
                                          zip(cones[1:], shapes[1:])
                                          for c, n in zip(cone, level))
        # the cones mapped down to coarser levels were exercised, not only
        # coarse levels iterated whole
        assert inner_coarse_cones >= 50


class TestMagnitudeStats:
    def test_uniform_flow(self):
        flow = FlowField(np.ones((8, 8)), np.zeros((8, 8)))
        assert magnitude_stats(flow) == (1.0, 0.0)

    def test_half_and_half(self):
        dx = np.zeros((2, 8))
        dx[1] = 2.0
        mean, std = magnitude_stats(FlowField(dx, np.zeros_like(dx)))
        assert mean == 1.0
        assert std == 1.0

    def test_zero_field(self):
        assert magnitude_stats(FlowField(np.zeros((8, 8)), np.zeros((8, 8)))) == (0.0, 0.0)

    def test_empty_mask_rejected(self, monkeypatch):
        # a box between two integer columns covers no pixel: the pair is a
        # gap, with no flow and no statistics over an empty field
        def no_flow(*args):
            raise AssertionError("flow ran for a patient with no pixel")

        monkeypatch.setattr(wardflow.pipeline, "estimate_flow", no_flow)
        assert pixel_span(BoundingBox(1.2, 0, 0.5, 8), 8, 8) is None
        frames = [ThermalFrame(np.full((8, 8), 22.0), float(t)) for t in range(2)]
        series = [FrameDetections(float(t), [Detection(BoundingBox(1.2, 0, 0.5, 8),
                                                       ObjectClass.PATIENT)]) for t in range(2)]
        assert analyze_session(frames, series, SessionConfig()).motion[0].gap

    def test_mask_permutation_invariant(self):
        rng = np.random.default_rng(5)
        flow = FlowField(rng.normal(size=(10, 10)), rng.normal(size=(10, 10)))
        mean, std = magnitude_stats(flow)
        # permute the pixels of the field among themselves
        perm = rng.permutation(100)
        shuffled = FlowField(flow.dx.ravel()[perm].reshape(10, 10),
                             flow.dy.ravel()[perm].reshape(10, 10))
        mean2, std2 = magnitude_stats(shuffled)
        assert mean2 == pytest.approx(mean, abs=1e-12)
        assert std2 == pytest.approx(std, abs=1e-12)


def masked(flow, patient, workers):
    """`mask_worker_regions` of the field over the patient's pixel span, and that span."""
    height, width = flow.dx.shape
    span = pixel_span(patient, width, height)
    return mask_worker_regions(FlowField(flow.dx[span], flow.dy[span]), span, workers), span


class TestMaskWorkerRegions:
    def test_no_workers_identity(self):
        rng = np.random.default_rng(6)
        flow = FlowField(rng.normal(size=(20, 20)), rng.normal(size=(20, 20)))
        out, span = masked(flow, BoundingBox(2, 2, 10, 10), [])
        assert np.array_equal(out.dx, flow.dx[span])
        assert np.array_equal(out.dy, flow.dy[span])

    def test_full_cover_zeroes_patient(self):
        flow = FlowField(np.ones((20, 20)), np.ones((20, 20)))
        out, _ = masked(flow, BoundingBox(4, 4, 8, 8), [BoundingBox(0, 0, 20, 20)])
        # the result is the patient's 8x8 span only, all of it zeroed
        assert out.dx.shape == (8, 8)
        assert np.all(out.dx == 0.0) and np.all(out.dy == 0.0)
        assert np.all(flow.dx == 1.0)  # the input field is left as it was

    def test_partial_overlap_matches_raster_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            flow = FlowField(rng.normal(size=(32, 32)), rng.normal(size=(32, 32)))
            patient = BoundingBox(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                                  int(rng.integers(4, 16)), int(rng.integers(4, 16)))
            workers = [BoundingBox(int(rng.integers(0, 24)), int(rng.integers(0, 24)),
                                   int(rng.integers(2, 8)), int(rng.integers(2, 8)))
                       for _ in range(2)]
            out, span = masked(flow, patient, workers)
            pm = raster_mask(patient, 32, 32)
            wm = np.zeros_like(pm)
            for w in workers:
                wm |= raster_mask(w, 32, 32)
            assert np.array_equal(pm[span], np.ones(out.dx.shape, dtype=bool))
            zeroed = (pm & wm)[span]
            assert np.all(out.dx[zeroed] == 0.0)
            assert np.all(out.dy[zeroed] == 0.0)
            assert np.array_equal(out.dx[~zeroed], flow.dx[span][~zeroed])
            assert np.array_equal(out.dy[~zeroed], flow.dy[span][~zeroed])

    def test_idempotent_and_nonincreasing(self):
        rng = np.random.default_rng(8)
        flow = FlowField(rng.normal(size=(24, 24)), rng.normal(size=(24, 24)))
        once, span = masked(flow, BoundingBox(4, 4, 12, 12), [BoundingBox(10, 2, 8, 8)])
        # the same boxes in the coordinates of the 12x12 span
        twice, _ = masked(once, BoundingBox(0, 0, 12, 12), [BoundingBox(6, -2, 8, 8)])
        assert np.array_equal(once.dx, twice.dx)
        assert np.array_equal(once.dy, twice.dy)
        assert np.all(once.magnitude() <= np.hypot(flow.dx, flow.dy)[span] + 1e-15)
