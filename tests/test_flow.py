import numpy as np
import pytest
from scipy import ndimage

import wardflow.flow
import wardflow.pipeline
from oracles import flow_per_pair, polyfit_neighborhood, pyramid, raster_mask, resize
from wardflow.boxes import BoundingBox, Detection, FrameDetections, ObjectClass, pixel_span
from wardflow.flow import (FlowParams, _dependency_cones, _resize, _warp, estimate_flow,
                           image_pyramid, magnitude_stats, mask_worker_regions, poly_expand)
from wardflow.frames import ThermalFrame
from wardflow.pipeline import SessionConfig, analyze_session
from wardflow.synth import ActorScript, Keyframe, Scenario, render


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


@pytest.fixture
def expansions(monkeypatch):
    """Every `poly_expand` call the flow makes from now on, as (image,
    region) pairs."""
    calls = []
    expand = wardflow.flow.poly_expand

    def recorded(image, poly_n, poly_sigma, region=None):
        calls.append((image, region))
        return expand(image, poly_n, poly_sigma, region)

    monkeypatch.setattr(wardflow.flow, "poly_expand", recorded)
    return calls


DEFAULT = FlowParams()


def expand(img):
    """`poly_expand` with the default flow settings."""
    return poly_expand(img, DEFAULT.poly_n, DEFAULT.poly_sigma)


def planes(e):
    """The planes of an expansion, in its order: bx, by, a11, a22, axy."""
    return np.moveaxis(e, -1, 0)


def flow_between(img, moved, params=DEFAULT):
    """The whole-frame flow between two images, each built once as a pyramid."""
    return estimate_flow(image_pyramid(img, params), image_pyramid(moved, params), params,
                         whole(np.shape(img)))


class TestPolyExpand:
    def test_constant_image(self):
        for coef in planes(expand(np.full((16, 16), 42.0))):
            assert np.abs(coef).max() < 1e-9

    def test_linear_ramp(self):
        X = np.tile(np.arange(20, dtype=float), (20, 1))
        bx, by, a11, _a22, _axy = planes(expand(3.0 * X))
        interior = (slice(4, -4), slice(4, -4))
        assert np.abs(bx[interior] - 3.0).max() < 1e-6
        assert np.abs(by[interior]).max() < 1e-6
        assert np.abs(a11[interior]).max() < 1e-6

    def test_quadratic(self):
        X = np.tile(np.arange(20, dtype=float), (20, 1))
        a11 = planes(expand(X * X))[2]
        interior = (slice(4, -4), slice(4, -4))
        assert np.abs(a11[interior] - 1.0).max() < 1e-3

    def test_matches_dense_least_squares_oracle(self):
        img = smooth_texture(42, shape=(24, 24))
        e = poly_expand(img, poly_n=5, poly_sigma=1.1)
        for row, col in [(6, 6), (11, 15), (17, 8)]:
            _c, bx, by, a11, a22, a12 = polyfit_neighborhood(img, row, col, 5, 1.1)
            assert e[row, col, 0] == pytest.approx(bx, abs=1e-8)
            assert e[row, col, 1] == pytest.approx(by, abs=1e-8)
            assert e[row, col, 2] == pytest.approx(a11, abs=1e-8)
            assert e[row, col, 3] == pytest.approx(a22, abs=1e-8)
            assert e[row, col, 4] == pytest.approx(2.0 * a12, abs=1e-8)

    def test_strips_have_the_bits_of_one_strip(self, monkeypatch):
        # strips of one row, of odd heights and taller than the level all
        # give the bits of the level expanded as one strip
        rng = np.random.default_rng(17)
        shapes = [(5, 5), (5, 384), (300, 7), (288, 384), (6, 9), (13, 5), (37, 41)]
        shapes += [tuple(int(n) for n in rng.integers(5, 90, size=2)) for _ in range(12)]
        for shape in shapes:
            for img in (rng.integers(-50, 300, shape).astype(np.float64),
                        rng.uniform(-5e5, 5e5, shape),
                        np.where(rng.random(shape) < 0.5, -0.0, 0.0)):
                for poly_n, poly_sigma in ((5, 1.1), (7, 1.5)):
                    if min(shape) < poly_n:
                        continue
                    monkeypatch.setattr(wardflow.flow, "_STRIP_PIXELS", img.size)
                    whole = poly_expand(img, poly_n, poly_sigma)
                    for rows in {1, 2, 3, 7, int(rng.integers(1, shape[0] + 1)), shape[0] + 5}:
                        monkeypatch.setattr(wardflow.flow, "_STRIP_PIXELS", rows * shape[1])
                        got = poly_expand(img, poly_n, poly_sigma)
                        assert np.array_equal(got.view(np.int64), whole.view(np.int64)), \
                            (shape, poly_n, rows)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            expand(np.zeros((3, 10)))

    def test_levels_are_five_planes_of_one_buffer(self):
        # an expanded level, or region of one, is exactly the five planes
        # the flow reads, in one buffer of its own
        for level in image_pyramid(smooth_texture(3, shape=(40, 52)), DEFAULT).levels:
            for region in (whole(level.shape), (slice(1, 4), slice(2, 9))):
                e = poly_expand(level, DEFAULT.poly_n, DEFAULT.poly_sigma, region)
                assert type(e) is np.ndarray and e.dtype == np.float64
                assert e.shape == (region[0].stop - region[0].start,
                                   region[1].stop - region[1].start, 5)
                assert e.base is None  # no larger buffer kept alive behind it


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
        assert len(image_pyramid(np.zeros((64, 64)), DEFAULT).levels) == 3
        assert len(image_pyramid(np.zeros((18, 23)), DEFAULT).levels) == 2
        assert len(image_pyramid(np.zeros((9, 40)), DEFAULT).levels) == 1

    def test_pyramid_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_flow(image_pyramid(np.zeros((32, 32)), DEFAULT),
                          image_pyramid(np.zeros((32, 33)), DEFAULT), DEFAULT, whole((32, 32)))
        with pytest.raises(ValueError):  # pyramids built with different level counts
            estimate_flow(image_pyramid(np.zeros((32, 32)), DEFAULT),
                          image_pyramid(np.zeros((32, 32)), FlowParams(pyramid_levels=2)),
                          DEFAULT, whole((32, 32)))


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
            prev_pyr, next_pyr = image_pyramid(a, params), image_pyramid(b, params)
            full = estimate_flow(prev_pyr, next_pyr, params, whole(shape))
            shapes = [level.shape for level in prev_pyr.levels]
            for span in self.spans(rng, shape, params):
                flow = estimate_flow(prev_pyr, next_pyr, params, span)
                assert flow.dx.shape == full.dx[span].shape
                assert np.array_equal(flow.dx, full.dx[span]), (shape, params, span)
                assert np.array_equal(flow.dy, full.dy[span]), (shape, params, span)
                cones = _dependency_cones(shapes, span, params)
                inner_coarse_cones += any(c.start > 0 or c.stop < n for cone, level in
                                          zip(cones[1:], shapes[1:])
                                          for c, n in zip(cone[0], level))
        # the cones mapped down to coarser levels were exercised, not only
        # coarse levels iterated whole
        assert inner_coarse_cones >= 50

    def test_first_frame_cone_has_the_bits_of_its_pyramid(self, expansions):
        # the first frame's cone, cut from the expansions a pair left for
        # another span where they cover it and expanded on its own where
        # they do not, gives the bits the flow has with no expansions left
        rng = np.random.default_rng(31)
        cut = own = 0
        for case in range(20):
            shape = (int(rng.integers(10, 100)), int(rng.integers(10, 120)))
            params = FlowParams(pyramid_levels=int(rng.integers(1, 5)),
                                window=int(rng.choice(np.arange(5, 22, 2))),
                                iterations=int(rng.integers(1, 5)))
            a = smooth_texture(case, shape=shape, sigma=2.0)
            b = np.roll(a, tuple(rng.integers(-3, 4, size=2)), axis=(0, 1)) + rng.normal(size=shape)
            c = np.roll(b, tuple(rng.integers(-3, 4, size=2)), axis=(0, 1)) + rng.normal(size=shape)
            spans = self.spans(rng, shape, params)
            for span, other in zip(spans, spans[1:] + spans[:1]):
                prev_pyr, next_pyr = image_pyramid(b, params), image_pyramid(c, params)
                full = estimate_flow(prev_pyr, next_pyr, params, span)
                estimate_flow(image_pyramid(a, params), prev_pyr, params, other)
                expansions.clear()
                flow = estimate_flow(prev_pyr, next_pyr, params, span)
                for got, want in ((flow.dx, full.dx), (flow.dy, full.dy)):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                        (shape, params, span)
                cones = _dependency_cones([level.shape for level in prev_pyr.levels], span,
                                          params)
                for level, steps in zip(prev_pyr.levels, cones):
                    regions = [region for image, region in expansions if image is level]
                    assert regions in ([], [steps[0]])
                    own += bool(regions)
                    cut += not regions
        assert cut >= 50 and own >= 50


class TestRegionExpansion:
    """A level is expanded only where the flow reads it, with the bits of
    its whole expansion there."""

    @staticmethod
    def regions(rng, shape):
        h, w = shape
        r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
        rows, cols = (np.sort(rng.choice(n + 1, size=2, replace=False)) for n in shape)
        return [whole(shape),
                (slice(0, 1), slice(0, 1)), (slice(h - 1, h), slice(w - 1, w)),  # 1-px corners
                (slice(0, 1), slice(w - 1, w)), (slice(h - 1, h), slice(0, 1)),
                (slice(r, r + 1), slice(c, c + 1)),                              # 1 px inside
                (slice(0, 2), slice(0, w)), (slice(0, h), slice(w - 2, w)),      # border strips
                (slice(r, h), slice(0, c + 1)), (slice(0, r + 1), slice(c, w)),
                (slice(int(rows[0]), int(rows[1])), slice(int(cols[0]), int(cols[1])))]

    def test_region_has_the_bits_of_the_whole_level(self, monkeypatch):
        # regions touching every border, 1-px regions and regions whose grown
        # crop at an edge is narrower than poly_n, in one strip or in many
        rng = np.random.default_rng(41)
        shapes = [(5, 5), (5, 384), (300, 7), (6, 9), (13, 5), (37, 41), (72, 96)]
        shapes += [tuple(int(n) for n in rng.integers(5, 90, size=2)) for _ in range(10)]
        for shape in shapes:
            gray = rng.integers(0, 256, shape).astype(np.uint8)
            for img in (gray, rng.integers(-50, 300, shape).astype(np.float64),
                        rng.uniform(-5e5, 5e5, shape),
                        np.where(rng.random(shape) < 0.5, -0.0, 0.0)):
                for poly_n, poly_sigma in ((5, 1.1), (7, 1.5)):
                    if min(shape) < poly_n:
                        continue
                    monkeypatch.setattr(wardflow.flow, "_STRIP_PIXELS", 32 * 384)
                    want = poly_expand(img.astype(np.float64), poly_n, poly_sigma)
                    for region in self.regions(rng, shape):
                        for strip in (32 * 384, 1, 3 * shape[1]):
                            monkeypatch.setattr(wardflow.flow, "_STRIP_PIXELS", strip)
                            got = poly_expand(img, poly_n, poly_sigma, region)
                            assert np.array_equal(got.view(np.int64),
                                                  want[region].view(np.int64)), \
                                (shape, img.dtype, poly_n, region, strip)

    def test_each_expansion_path_matches_the_oracle(self, expansions):
        # pairs chained over four frames, each on spans that touch every
        # border: every span's field has the bits of the whole-frame oracle
        # there, while second frames' levels grow their boxes and first
        # frames' cones are cut from what the pair before left or expanded
        rng = np.random.default_rng(43)
        grown = cut = own = 0
        for case in range(12):
            shape = (int(rng.integers(10, 70)), int(rng.integers(10, 80)))
            params = FlowParams(pyramid_levels=int(rng.integers(1, 4)),
                                window=int(rng.choice([5, 7, 9, 15])),
                                iterations=int(rng.integers(1, 4)))
            frames = [smooth_texture(case, shape=shape, sigma=2.0)]
            for _ in range(3):
                frames.append(np.roll(frames[-1], tuple(rng.integers(-4, 5, size=2)), axis=(0, 1))
                              + rng.normal(size=shape))
            pyramids = [image_pyramid(frame, params) for frame in frames]
            spans = TestDependencyCone.spans(rng, shape, params)
            for k in range(1, len(frames)):
                ref_dx, ref_dy = flow_per_pair(frames[k - 1], frames[k], params)
                handed = pyramids[k - 1].expanded  # what pair k - 1 left, for every span
                for span in spans:
                    pyramids[k - 1].expanded = dict(handed)
                    expansions.clear()
                    flow = estimate_flow(pyramids[k - 1], pyramids[k], params, span)
                    for got, want in ((flow.dx, ref_dx[span]), (flow.dy, ref_dy[span])):
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                            (case, k, span)
                    assert not pyramids[k - 1].expanded  # each level left was taken
                    for j, level in enumerate(pyramids[k].levels):
                        box, e = pyramids[k].expanded[j]
                        regions = [region for image, region in expansions if image is level]
                        assert regions[-1] == box and e.shape == (box[0].stop - box[0].start,
                                                                  box[1].stop - box[1].start, 5)
                        for small, large in zip(regions, regions[1:]):  # each the union so far
                            assert all(a.start >= b.start and a.stop <= b.stop
                                       for a, b in zip(small, large)) and small != large
                        grown += len(regions) - 1
                    for j, level in enumerate(pyramids[k - 1].levels):
                        regions = [region for image, region in expansions if image is level]
                        assert j in handed or regions, "a cone with nothing left was cut"
                        own += bool(regions)
                        cut += not regions
        assert grown >= 10 and cut >= 10 and own >= 10, (grown, cut, own)

    def test_hd_session_expands_no_whole_finest_level(self, expansions):
        # a seeded 384x288 session whose patient jitters by up to 4 px a
        # second, as perfbench's hd-motion does: the flow reads a part of
        # each finest level, and expands no more
        rng = np.random.default_rng(5)
        keyframes = [Keyframe(float(t), BoundingBox(140 + rng.uniform(-4, 4),
                                                    100 + rng.uniform(-4, 4), 60, 110))
                     for t in range(8)]
        worker = ActorScript([Keyframe(0.0, BoundingBox(185, 100, 40, 110))], enter=3.0)
        scenario = Scenario(duration=8, patient=ActorScript(keyframes), workers=[worker],
                            resolution=(384, 288), noise_sigma_c=0.1)
        frames, truth = render(scenario, seed=5)
        report = analyze_session(zip(frames, truth.frames, strict=True), SessionConfig())
        assert not any(s.gap for s in report.motion)
        finest = [region for image, region in expansions if image.shape == (288, 384)]
        assert len(finest) >= 2 * len(report.motion)  # each pair's second frame and a cone
        assert all(region is not None and region != whole((288, 384)) for region in finest)


class TestConeUpsample:
    """Resizing a field on a region, from a part of it, has the bits of
    `ndimage.zoom` on the whole field."""

    @staticmethod
    def footprint(region, level, shape):
        # the coarser pixels a region's samples read, as `_dependency_cones` maps them
        return tuple(slice(max(0, r.start * n // m - 1), min(n, -(-r.stop * n // m) + 1))
                     for r, n, m in zip(region, level, shape))

    def check(self, arr, shape, region):
        # two planes, each equal to what zoom gives it alone; only the sign
        # of a zero may differ, where zoom keeps a -0.0 that the warp's sum
        # from 0.0 turns to 0.0, as `map_coordinates` does
        planes = np.stack([arr, -3.0 * arr], -1)
        expected = np.stack([resize(p, shape)[region] for p in (arr, -3.0 * arr)], -1)
        assert np.array_equal(_resize(planes, (0, 0), arr.shape, shape, region), expected)
        part = self.footprint(region, arr.shape, shape)
        got = _resize(planes[part], (part[0].start, part[1].start), arr.shape, shape, region)
        assert np.array_equal(got, expected), (arr.shape, shape, region)

    @pytest.mark.parametrize("level, shape", [((9, 12), (18, 24)), ((18, 23), (37, 41)),
                                              ((7, 5), (13, 17)), ((4, 6), (11, 6)),
                                              ((1, 3), (5, 7)), ((36, 48), (72, 96))])
    def test_regions_touching_each_border_and_single_pixels(self, level, shape):
        # odd and non-2x ratios; every region below touches a border or is 1 px
        arr = np.random.default_rng(3).normal(size=level)
        h, w = shape
        for region in [(slice(0, h), slice(0, w)),
                       (slice(0, 1), slice(0, 1)), (slice(h - 1, h), slice(w - 1, w)),
                       (slice(0, 1), slice(w - 1, w)), (slice(h - 1, h), slice(0, 1)),
                       (slice(h // 2, h // 2 + 1), slice(w // 2, w // 2 + 1)),
                       (slice(0, max(1, h // 3)), slice(1, w)),
                       (slice(1, h), slice(0, max(1, w // 3))),
                       (slice(h // 3, h), slice(w - 2, w)),
                       (slice(h - 2, h), slice(w // 3, w))]:
            self.check(arr, shape, region)

    def test_random_shapes_and_regions(self):
        rng = np.random.default_rng(29)
        for low in np.repeat([1.0, 0.3], 2000):  # growing only, then shrinking too
            level = tuple(int(n) for n in rng.integers(1, 50, size=2))
            shape = tuple(max(1, int(n * rng.uniform(low, 3.0))) for n in level)
            arr = rng.normal(size=level) * rng.choice([1.0, 1e6])
            arr[rng.random(level) < 0.2] = rng.choice([0.0, -0.0])
            bounds = [np.sort(rng.choice(m + 1, size=2, replace=False)) for m in shape]
            self.check(arr, shape, tuple(slice(int(lo), int(hi)) for lo, hi in bounds))

    def test_pyramid_levels_have_the_bits_of_zoom(self):
        # every level of uint8 frames, with odd sizes, one to four levels and
        # coarsest levels just poly_n wide, has the bits of the oracle's
        # gaussian_filter and zoom; float frames may differ only in the sign
        # of a zero, which the warp's sum from 0.0 turns to 0.0
        rng = np.random.default_rng(31)
        shapes = [(5, 5), (5, 9), (9, 9), (10, 11), (19, 41), (20, 37), (39, 77), (40, 21),
                  (72, 96), (143, 191), (288, 384), (7, 13), (14, 28), (28, 56)]
        shapes += [tuple(int(n) for n in rng.integers(5, 120, size=2)) for _ in range(16)]
        coarsest_at_poly_n = 0
        for shape in shapes:
            gray = rng.integers(0, 256, shape).astype(np.uint8)
            signed = rng.normal(size=shape) * 100.0
            signed[rng.random(shape) < 0.3] = -0.0
            for levels in (1, 2, 3, 4):
                for poly_n, poly_sigma in ((5, 1.1), (7, 1.5)):
                    if min(shape) < poly_n:
                        continue
                    params = FlowParams(pyramid_levels=levels, poly_n=poly_n, poly_sigma=poly_sigma)
                    got = image_pyramid(gray, params).levels
                    want = pyramid(gray, params)
                    assert len(got) == len(want)
                    assert got[0] is gray
                    for g, w in zip(got[1:], want[1:]):
                        assert g.dtype == np.float64 and g.shape == w.shape
                        assert np.array_equal(g.view(np.int64), w.view(np.int64)), (shape, levels)
                    coarsest_at_poly_n += min(got[-1].shape) == poly_n and len(got) > 1
                    got, want = image_pyramid(signed, params).levels, pyramid(signed, params)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert coarsest_at_poly_n >= 10, coarsest_at_poly_n


class TestSharedWarp:
    """One set of bilinear weights for every plane has the bits of
    `map_coordinates` on each plane alone."""

    @staticmethod
    def check(planes, rows, cols):
        expected = np.stack([ndimage.map_coordinates(planes[..., k], [rows, cols], order=1,
                                                     mode="nearest")
                             for k in range(planes.shape[-1])], axis=-1)
        got = _warp(planes, rows, cols, (0, 0), planes.shape[:2])
        # compared as bits, so a -0.0 where map_coordinates gives 0.0 fails
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (rows, cols)

    @staticmethod
    def coordinates(rng, kind, n, shape):
        if kind == "inside":
            return rng.uniform(-3.0, n + 2.0, shape)
        if kind == "integer":
            return rng.integers(-2, n + 2, shape).astype(np.float64)
        if kind == "edge":
            return rng.choice([-1e6, 1e6, -1.0, -0.5, -1e-20, -0.0, 0.0, 1e-20, 0.5, n - 1.5,
                               np.nextafter(n - 1.0, 0.0), n - 1.0, np.nextafter(n - 1.0, n),
                               n - 0.5, float(n)], shape)
        if kind == "huge":
            return rng.uniform(-1e6, 1e6, shape)
        # a hair off a pixel, where c - floor(c) rounds to 0 or 1
        return rng.integers(0, n, shape) + rng.uniform(-1.0, 1.0, shape) * 1e-16

    def test_adversarial_cases(self):
        rng = np.random.default_rng(14)
        kinds = ["inside", "integer", "edge", "huge", "near integer"]
        for case in range(3000):
            h, w = (int(n) for n in rng.integers(1, 12, size=2))
            if case % 7 == 0:
                h, w = [(1, 1), (1, w), (h, 1)][case % 3]
            planes = rng.normal(size=(h, w, 5)) * 10.0 ** rng.uniform(-3, 3)
            planes[rng.random(planes.shape) < 0.1] = 0.0
            planes[rng.random(planes.shape) < 0.1] = -0.0
            if case % 5 == 0:
                planes[..., 0] = -0.0  # all four corners -0.0
            shape = tuple(int(n) for n in rng.integers(1, 8, size=2))
            rows = self.coordinates(rng, kinds[case % 5], h, shape)
            cols = self.coordinates(rng, kinds[(case // 5) % 5], w, shape)
            self.check(planes, rows, cols)

    def test_flow_update_shapes(self):
        # rows vary down a column and cols along a row, as `_normal_terms` builds them
        rng = np.random.default_rng(15)
        planes = rng.normal(size=(72, 96, 5))
        rows = np.arange(3, 70, dtype=np.float64)[:, None] + rng.normal(0, 4, (67, 55))
        cols = np.arange(20, 75, dtype=np.float64) + rng.normal(0, 4, (67, 55))
        self.check(planes, rows, cols)


class TestIterationDomains:
    """Each update runs on a domain that shrinks by the blur's reach."""

    SHAPE = (120, 160)  # levels 120x160, 60x80 and 30x40; the blur reaches 7 px

    def domains(self, monkeypatch, span):
        calls, kernels, resized = [], [], []
        update, kernel, resize_ = (wardflow.flow._update_flow, wardflow.flow._gaussian_kernel,
                                   wardflow.flow._resize)

        def recording_update(e1, e2, dx, dy, *rest):
            new_dx, new_dy = update(e1, e2, dx, dy, *rest)
            calls.append((dx.shape, new_dx.shape))
            return new_dx, new_dy

        def cone_resize(planes, origin, level, shape, region):
            # a coarser field is carried up on the finer level's first domain alone
            up = resize_(planes, origin, level, shape, region)
            assert region == firsts[shape]
            assert up.shape == (region[0].stop - region[0].start,
                                region[1].stop - region[1].start, 2)
            resized.append(shape)
            return up

        monkeypatch.setattr(wardflow.flow, "_update_flow", recording_update)
        monkeypatch.setattr(wardflow.flow, "_gaussian_kernel",
                            lambda length: kernels.append(length) or kernel(length))
        a = smooth_texture(4, shape=self.SHAPE, sigma=2.0)
        b = np.roll(a, (1, -2), axis=(0, 1))
        prev_pyr, next_pyr = image_pyramid(a, DEFAULT), image_pyramid(b, DEFAULT)
        shapes = [level.shape for level in next_pyr.levels]
        firsts = {shape: steps[0]
                  for shape, steps in zip(shapes, _dependency_cones(shapes, span, DEFAULT))}
        monkeypatch.setattr(wardflow.flow, "_resize", cone_resize)
        flow = estimate_flow(prev_pyr, next_pyr, DEFAULT, span)
        assert flow.dx.shape == flow.dy.shape == calls[-1][1]
        assert kernels == [DEFAULT.window]
        assert resized == shapes[-2::-1]  # once per level but the coarsest, coarse to fine
        return calls

    def test_mid_frame_span(self, monkeypatch):
        # rows 50:60, cols 70:82 of the finest level; coarsest first
        assert self.domains(monkeypatch, (slice(50, 60), slice(70, 82))) == [
            ((30, 40), (30, 40)), ((30, 40), (30, 40)), ((30, 40), (30, 38)),
            ((60, 72), (56, 58)), ((56, 58), (43, 44)), ((43, 44), (29, 30)),
            ((52, 54), (38, 40)), ((38, 40), (24, 26)), ((24, 26), (10, 12)),
        ]

    def test_corner_span(self, monkeypatch):
        # rows 0:8, cols 0:10: domains grow only away from the corner
        assert self.domains(monkeypatch, (slice(0, 8), slice(0, 10))) == [
            ((30, 40), (30, 34)), ((30, 34), (27, 27)), ((27, 27), (20, 20)),
            ((37, 38), (30, 31)), ((30, 31), (23, 24)), ((23, 24), (16, 17)),
            ((29, 31), (22, 24)), ((22, 24), (15, 17)), ((15, 17), (8, 10)),
        ]


class TestMagnitudeStats:
    def test_uniform_flow(self):
        assert magnitude_stats(np.ones((8, 8))) == (1.0, 0.0)

    def test_half_and_half(self):
        mag = np.zeros((2, 8))
        mag[1] = 2.0
        mean, std = magnitude_stats(mag)
        assert mean == 1.0
        assert std == 1.0

    def test_zero_field(self):
        assert magnitude_stats(np.zeros((8, 8))) == (0.0, 0.0)

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
        assert analyze_session(zip(frames, series, strict=True), SessionConfig()).motion[0].gap

    def test_mask_permutation_invariant(self):
        rng = np.random.default_rng(5)
        mag = np.hypot(rng.normal(size=(10, 10)), rng.normal(size=(10, 10)))
        mean, std = magnitude_stats(mag)
        # permute the pixels of the field among themselves
        perm = rng.permutation(100)
        mean2, std2 = magnitude_stats(mag.ravel()[perm].reshape(10, 10))
        assert mean2 == pytest.approx(mean, abs=1e-12)
        assert std2 == pytest.approx(std, abs=1e-12)


def masked(mag, patient, workers):
    """`mask_worker_regions` of a copy of the whole-frame magnitude `mag`
    over the patient's pixel span, as `motion_step` hands it a fresh
    magnitude, and that span."""
    height, width = mag.shape
    span = pixel_span(patient, width, height)
    return mask_worker_regions(mag[span].copy(), span, workers), span


class TestMaskWorkerRegions:
    def test_no_workers_identity(self):
        rng = np.random.default_rng(6)
        mag = np.hypot(rng.normal(size=(20, 20)), rng.normal(size=(20, 20)))
        out, span = masked(mag, BoundingBox(2, 2, 10, 10), [])
        assert np.array_equal(out, mag[span])

    def test_full_cover_zeroes_patient(self):
        mag = np.ones((20, 20))
        given = mag[4:12, 4:12].copy()
        out = mask_worker_regions(given, pixel_span(BoundingBox(4, 4, 8, 8), 20, 20),
                                  [BoundingBox(0, 0, 20, 20)])
        # the result is the patient's 8x8 span only, all of it zeroed, in place
        assert out is given
        assert out.shape == (8, 8)
        assert np.all(out == 0.0)
        assert np.all(mag == 1.0)  # the whole-frame field is left as it was

    def test_partial_overlap_matches_raster_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mag = np.hypot(rng.normal(size=(32, 32)), rng.normal(size=(32, 32)))
            patient = BoundingBox(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                                  int(rng.integers(4, 16)), int(rng.integers(4, 16)))
            workers = [BoundingBox(int(rng.integers(0, 24)), int(rng.integers(0, 24)),
                                   int(rng.integers(2, 8)), int(rng.integers(2, 8)))
                       for _ in range(2)]
            out, span = masked(mag, patient, workers)
            pm = raster_mask(patient, 32, 32)
            wm = np.zeros_like(pm)
            for w in workers:
                wm |= raster_mask(w, 32, 32)
            assert np.array_equal(pm[span], np.ones(out.shape, dtype=bool))
            zeroed = (pm & wm)[span]
            assert np.all(out[zeroed] == 0.0)
            assert np.array_equal(out[~zeroed], mag[span][~zeroed])

    def test_idempotent_and_nonincreasing(self):
        rng = np.random.default_rng(8)
        mag = np.hypot(rng.normal(size=(24, 24)), rng.normal(size=(24, 24)))
        once, span = masked(mag, BoundingBox(4, 4, 12, 12), [BoundingBox(10, 2, 8, 8)])
        # the same boxes in the coordinates of the 12x12 span
        twice, _ = masked(once, BoundingBox(0, 0, 12, 12), [BoundingBox(6, -2, 8, 8)])
        assert np.array_equal(once, twice)
        assert np.all(once <= mag[span] + 1e-15)
