"""Which wardflow names the traced run rebinds, and the per-layer metrics
derived from the spans and counters they record.

`boxes` has no span: its functions run per box pair, and wrapping them
would cost more than they do.  Their time shows as the self time of
`evaluation` and `analytics`.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

_TOL = 1e-6  # timestamp match tolerance of wardflow.pipeline.match_detections


def _note_read(tr, args, frame):
    tr.counts["frames.read_bytes"] += len(args[0])


def _note_write(tr, args, data):
    tr.counts["frames.write_bytes"] += len(data)


def _note_parse(tr, args, frames):
    tr.counts["detect.parse_dets"] += sum(len(f.detections) for f in frames)


def _note_blob(tr, args, dets):
    tr.counts["detect.blobs_found"] += len(dets)


def _note_match(tr, args, per_frame):
    frames, dets = args[0], args[1]
    given = {id(d) for d in dets}
    tr.counts["pipeline.unmatched_frames"] += sum(id(fd) not in given for fd in per_frame)
    frame_keys = {round(f.timestamp / _TOL) for f in frames}
    tr.counts["pipeline.orphan_dets"] += sum(round(d.timestamp / _TOL) not in frame_keys
                                             for d in dets)


def _note_analyze(tr, args, report):
    tr.counts["flow.useful_pairs"] += sum(not s.gap for s in report.motion)
    tr.counts["analytics.events"] += len(report.events)
    tr.counts["analytics.gap_seconds"] += len(report.gaps)


def _note_flow(tr, args, field):
    """Pyramid pixels times iterations, with estimate_flow's level rule."""
    params = args[2]
    shape = field.dx.shape
    pixels = shape[0] * shape[1]
    for _ in range(params.pyramid_levels - 1):
        shape = (max(1, round(shape[0] * params.pyramid_scale)),
                 max(1, round(shape[1] * params.pyramid_scale)))
        if min(shape) < params.poly_n:
            break
        pixels += shape[0] * shape[1]
    tr.counts["flow.pixel_iters"] += pixels * params.iterations


def _note_ap(tr, args, result):
    dets, cls = args[0], args[2]
    tr.counts["evaluation.ranked_dets"] += sum(d.cls == cls for f in dets
                                               for d in f.detections)


# (module whose global is rebound, name, span, counter hook)
BINDINGS = [
    ("wardflow.cli", "render", "synth.render", None),
    ("wardflow.cli", "export_session", "synth.export", None),
    ("wardflow.synth", "write_npy_frame", "frames.write", _note_write),
    ("wardflow.cli", "load_sequence", "frames.load", None),
    ("wardflow.frames", "read_npy_frame", "frames.read", _note_read),
    ("wardflow.cli", "parse_detections_jsonl", "detect.parse", _note_parse),
    ("wardflow.cli", "blob_detect", "detect.blob", _note_blob),
    ("wardflow.cli", "read_riker_csv", "analytics.riker", None),
    ("wardflow.cli", "analyze_session", "pipeline.analyze", _note_analyze),
    ("wardflow.pipeline", "match_detections", "pipeline.match", _note_match),
    ("wardflow.pipeline", "count_workers", "analytics.count", None),
    ("wardflow.pipeline", "interaction_time", "analytics.interaction", None),
    ("wardflow.pipeline", "auto_window", "frames.gray", None),
    ("wardflow.pipeline", "normalize_to_gray", "frames.gray", None),
    ("wardflow.pipeline", "estimate_flow", "flow.estimate", _note_flow),
    ("wardflow.flow", "poly_expand", "flow.poly_expand", None),
    ("wardflow.pipeline", "motion_step", "analytics.motion_step", None),
    ("wardflow.analytics", "mask_worker_regions", "flow.mask", None),
    ("wardflow.analytics", "magnitude_stats", "flow.stats", None),
    ("wardflow.pipeline", "align_riker", "analytics.riker", None),
    ("wardflow.cli", "render_chart", "svgplot.render", None),
    ("wardflow.cli", "mean_ap", "evaluation.map", None),
    ("wardflow.evaluation", "average_precision", "evaluation.ap", _note_ap),
]

COMMANDS = ("cli.synth", "cli.analyze", "cli.eval")


def _quantile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile in ms (0.0 when the layer never ran)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tr: Tracer, untraced_analyze_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced session, in BENCHMARK.json order."""
    total, self_time, calls, counts = tr.total, tr.self_time, tr.calls, tr.counts
    pairs = calls["flow.estimate"]
    estimate_s = total["flow.estimate"]
    return {
        "frames.read_s": (total["frames.read"], "s"),
        "frames.read_calls": (calls["frames.read"], "count"),
        "frames.read_mb": (counts["frames.read_bytes"] / 1e6, "MB"),
        "frames.io_s": (self_time["frames.load"], "s"),
        "frames.gray_s": (total["frames.gray"], "s"),
        "frames.write_s": (total["frames.write"], "s"),
        "frames.write_mb": (counts["frames.write_bytes"] / 1e6, "MB"),
        "detect.parse_s": (total["detect.parse"], "s"),
        "detect.parse_dets": (counts["detect.parse_dets"], "count"),
        "detect.blob_s": (total["detect.blob"], "s"),
        "detect.blob_calls": (calls["detect.blob"], "count"),
        "detect.blobs_found": (counts["detect.blobs_found"], "count"),
        "pipeline.match_s": (total["pipeline.match"], "s"),
        "pipeline.unmatched_frames": (counts["pipeline.unmatched_frames"], "count"),
        "pipeline.orphan_dets": (counts["pipeline.orphan_dets"], "count"),
        "pipeline.self_s": (self_time["pipeline.analyze"], "s"),
        "flow.pairs": (pairs, "count"),
        "flow.estimate_s": (estimate_s, "s"),
        "flow.pair_ms_p50": (_quantile_ms(tr.durations["flow.estimate"], 50), "ms"),
        "flow.pair_ms_p90": (_quantile_ms(tr.durations["flow.estimate"], 90), "ms"),
        "flow.poly_expand_s": (total["flow.poly_expand"], "s"),
        "flow.poly_expand_calls": (calls["flow.poly_expand"], "count"),
        "flow.update_s": (self_time["flow.estimate"], "s"),
        "flow.mpix_per_s": (counts["flow.pixel_iters"] / 1e6 / estimate_s if pairs else 0.0,
                            "Mpix/s"),
        "flow.useful_ratio": (counts["flow.useful_pairs"] / pairs if pairs else 0.0, "frac"),
        "flow.mask_s": (total["flow.mask"], "s"),
        "flow.stats_s": (total["flow.stats"], "s"),
        "analytics.count_s": (total["analytics.count"], "s"),
        "analytics.interaction_s": (total["analytics.interaction"], "s"),
        "analytics.motion_step_s": (self_time["analytics.motion_step"], "s"),
        "analytics.riker_s": (total["analytics.riker"], "s"),
        "analytics.events": (counts["analytics.events"], "count"),
        "analytics.gap_seconds": (counts["analytics.gap_seconds"], "count"),
        "evaluation.map_s": (total["evaluation.map"], "s"),
        "evaluation.ap_calls": (calls["evaluation.ap"], "count"),
        "evaluation.ranked_dets": (counts["evaluation.ranked_dets"], "count"),
        "synth.render_s": (total["synth.render"], "s"),
        "synth.export_s": (self_time["synth.export"], "s"),
        "svgplot.render_s": (total["svgplot.render"], "s"),
        "cli.synth_s": (total["cli.synth"], "s"),
        "cli.analyze_s": (total["cli.analyze"], "s"),
        "cli.eval_s": (total["cli.eval"], "s"),
        "cli.self_s": (sum(self_time[c] for c in COMMANDS), "s"),
        "trace.overhead_frac": (total["cli.analyze"] / untraced_analyze_s - 1.0, "frac"),
    }
