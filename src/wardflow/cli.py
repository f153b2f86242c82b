"""Command-line entry point: synth / analyze / eval subcommands.

Exit codes are a stable contract for scripting: 0 success, 2 missing or
unreadable files, 3 schema/format errors, 4 bad configuration.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .analytics import read_riker_csv, report_to_dict
from .boxes import BoundingBox, FrameDetections
from .detect import blob_detect, parse_detections_jsonl
from .errors import FormatError, UnsupportedError, ValidationError
from .evaluation import (DEFAULT_IOU_THRESHOLDS, counting_accuracy,
                         format_duration, mean_ap, time_error)
from .flow import FlowParams
from .frames import ThermalFrame, load_manifest, load_sequence
from .pipeline import SessionConfig, analyze_session
from .svgplot import Panel, Series, render_chart
from .synth import export_session, load_scenario, render

EXIT_OK = 0
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_CONFIG = 4


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _parse_box(text: str) -> BoundingBox:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected x,y,w,h, got {text!r}")
    return BoundingBox(*parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wardflow",
                                     description="Thermal frame-sequence analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render a synthetic session")
    p_synth.add_argument("--scenario", required=True, help="scenario JSON file")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="analyze a frame sequence")
    p_an.add_argument("--manifest", required=True)
    src = p_an.add_mutually_exclusive_group(required=True)
    src.add_argument("--dets", help="detections JSONL file")
    src.add_argument("--blob", action="store_true",
                     help="use the naive thermal blob detector")
    p_an.add_argument("--tau", type=float, default=0.1)
    p_an.add_argument("--alpha", type=float, default=0.7)
    p_an.add_argument("--conf-min", type=float, default=0.5)
    p_an.add_argument("--riker", help="riker CSV file (t,score)")
    p_an.add_argument("--riker-window", type=float, default=300.0)
    p_an.add_argument("--window", help="contrast window lo,hi in Celsius")
    p_an.add_argument("--no-motion", action="store_true",
                      help="skip optical-flow motion estimation")
    p_an.add_argument("--blob-min-temp", type=float, default=30.0)
    p_an.add_argument("--blob-min-area", type=float, default=25.0)
    p_an.add_argument("--bed", help="bed region x,y,w,h for blob classing")
    p_an.add_argument("--out", required=True)

    p_ev = sub.add_parser("eval", help="evaluate detections against ground truth")
    p_ev.add_argument("--dets", required=True)
    p_ev.add_argument("--gt", required=True)
    p_ev.add_argument("--thresholds", default=",".join(str(t) for t in DEFAULT_IOU_THRESHOLDS))
    p_ev.add_argument("--tau", type=float, default=0.1)
    p_ev.add_argument("--conf-min", type=float, default=0.5)
    p_ev.add_argument("--dt", type=float, default=1.0)
    p_ev.add_argument("--name", default="video1", help="row label for time tables")
    p_ev.add_argument("--out", required=True)
    return parser


def _cmd_synth(args) -> int:
    scenario = load_scenario(args.scenario)
    frames, truth = render(scenario, seed=args.seed)
    export_session(frames, truth, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _load_detections_file(path) -> list[FrameDetections]:
    with open(path) as fh:
        return parse_detections_jsonl(fh)


def _peek_resolution(frames: Iterator[ThermalFrame]):
    """The first frame's (width, height), or None, and the unconsumed stream."""
    first = next(frames, None)
    if first is None:
        return None, frames
    return (first.width, first.height), itertools.chain([first], frames)


def _cmd_analyze(args) -> int:
    contrast = None
    if args.window:
        lo, hi = (float(v) for v in args.window.split(","))
        contrast = (lo, hi)
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    config = SessionConfig(tau=args.tau, alpha=args.alpha, dt=manifest.dt,
                           conf_min=args.conf_min, flow=FlowParams(),
                           riker_window=args.riker_window,
                           contrast_window=contrast)
    bed = _parse_box(args.bed) if args.bed else None

    frames = load_sequence(manifest, manifest_path.parent)
    if args.dets:
        resolution, frames = _peek_resolution(frames)
        with open(args.dets) as fh:
            dets = parse_detections_jsonl(fh, resolution)
    else:
        def dets(frame):
            return blob_detect(frame, args.blob_min_temp, args.blob_min_area, bed)
    riker = read_riker_csv(Path(args.riker).read_text()) if args.riker else None

    report = analyze_session(frames, dets, config, riker,
                             compute_motion=not args.no_motion, timeline=manifest.frames)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "report.json",
                  json.dumps(report_to_dict(report), indent=2) + "\n")
    motion_rows = ["t,raw,smoothed"]
    motion_rows += [f"{s.timestamp!r},{s.raw!r},{s.smoothed!r}" for s in report.motion]
    _write_atomic(out / "motion.csv", "\n".join(motion_rows) + "\n")
    event_rows = ["t,ratio,patient_box,worker_box"]
    event_rows += [
        f"{e.timestamp!r},{e.overlap_ratio!r},"
        f"{e.patient_box.x}:{e.patient_box.y}:{e.patient_box.w}:{e.patient_box.h},"
        f"{e.worker_box.x}:{e.worker_box.y}:{e.worker_box.w}:{e.worker_box.h}"
        for e in report.events
    ]
    _write_atomic(out / "events.csv", "\n".join(event_rows) + "\n")

    ts = [e.timestamp for e in manifest.frames]
    event_times = {e.timestamp for e in report.events}
    pi_series = [1 if t in event_times else 0 for t in ts]
    panels = [
        Panel("Workers per second",
              [Series("workers", ts, [float(c) for c in report.per_second_worker_counts],
                      step=True)], x_label="time (s)"),
        Panel("Physical interaction per second",
              [Series("interaction", ts, [float(v) for v in pi_series], step=True)],
              x_label="time (s)"),
    ]
    _write_atomic(out / "activity.svg", render_chart(panels))
    if report.motion:
        mt = [s.timestamp for s in report.motion]
        motion_panels = [Panel("Patient motion over time",
                               [Series("raw", mt, [s.raw for s in report.motion]),
                                Series("smoothed", mt, [s.smoothed for s in report.motion])],
                               x_label="time (s)")]
        _write_atomic(out / "motion.svg", render_chart(motion_panels))
    print(f"nursing_time_s={report.nursing_time_s} "
          f"interaction_time_s={report.interaction_time_s} "
          f"events={len(report.events)}")
    return EXIT_OK


def _per_second_series(frames: list[FrameDetections], timeline: list[float],
                       conf_min: float, tau: float) -> tuple[list[int], list[int]]:
    """Worker counts and interaction indicators on a fixed timeline."""
    from .analytics import count_workers, physical_interaction
    by_t = {round(f.timestamp / 1e-6): f for f in frames}
    counts, pis = [], []
    for t in timeline:
        frame = by_t.get(round(t / 1e-6), FrameDetections(t))
        counts.append(count_workers(frame, conf_min))
        patient = frame.best_patient(conf_min)
        pi = 0
        if patient is not None:
            pi = int(any(physical_interaction(patient.box, w.box, tau)[0]
                         for w in frame.workers(conf_min)))
        pis.append(pi)
    return counts, pis


def _cmd_eval(args) -> int:
    thresholds = tuple(float(v) for v in args.thresholds.split(",") if v)
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise ValueError(f"bad IoU thresholds {args.thresholds!r}")
    dets = _load_detections_file(args.dets)
    gts = _load_detections_file(args.gt)

    table = mean_ap(dets, gts, thresholds)
    timeline = [f.timestamp for f in gts]
    pred_counts, pred_pi = _per_second_series(dets, timeline, args.conf_min, args.tau)
    label_counts, label_pi = _per_second_series(gts, timeline, args.conf_min, args.tau)
    worker_acc = counting_accuracy(pred_counts, label_counts)
    pi_acc = counting_accuracy(pred_pi, label_pi)
    pred_nursing = sum(pred_counts) * args.dt
    label_nursing = sum(label_counts) * args.dt
    pred_inter = sum(pred_pi) * args.dt
    label_inter = sum(label_pi) * args.dt

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["metric,patient,worker,overall"]
    classes = list(table.per_class)
    for thr in thresholds:
        cells = ",".join(f"{table.per_class[c][thr]:.4f}" if c in table.per_class else ""
                         for c in classes)
        rows.append(f"mAP@{thr:g},{cells},")
    avg_cells = ",".join(f"{table.class_averages[c]:.4f}" for c in classes)
    overall = f"{table.overall:.4f}" if table.overall is not None else ""
    rows.append(f"average,{avg_cells},{overall}")
    _write_atomic(out / "map.csv", "\n".join(rows) + "\n")

    _write_atomic(out / "accuracy.csv",
                  "video,worker_counting,interaction_counting\n"
                  f"{args.name},{worker_acc:.4f},{pi_acc:.4f}\n")
    _write_atomic(out / "nursing_time.csv",
                  "video,predicted,label,error\n"
                  f"{args.name},{format_duration(pred_nursing)},"
                  f"{format_duration(label_nursing)},"
                  f"{format_duration(time_error(pred_nursing, label_nursing))}\n")
    _write_atomic(out / "interaction_time.csv",
                  "video,predicted,label,error\n"
                  f"{args.name},{format_duration(pred_inter)},"
                  f"{format_duration(label_inter)},"
                  f"{format_duration(time_error(pred_inter, label_inter))}\n")
    _write_atomic(out / "eval.json", json.dumps({
        "map": {c.value: {f"{t:g}": table.per_class[c][t] for t in thresholds}
                for c in table.per_class},
        "map_class_averages": {c.value: v for c, v in table.class_averages.items()},
        "map_overall": table.overall,
        "worker_counting_accuracy": worker_acc,
        "interaction_counting_accuracy": pi_acc,
        "nursing_time": {"predicted_s": pred_nursing, "label_s": label_nursing,
                         "error_s": time_error(pred_nursing, label_nursing)},
        "interaction_time": {"predicted_s": pred_inter, "label_s": label_inter,
                             "error_s": time_error(pred_inter, label_inter)},
    }, indent=2) + "\n")
    if table.overall is not None:
        print(f"mAP={table.overall:.4f} worker_acc={worker_acc:.4f} pi_acc={pi_acc:.4f}")
    else:
        print(f"worker_acc={worker_acc:.4f} pi_acc={pi_acc:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "analyze": _cmd_analyze, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, NotADirectoryError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FormatError, UnsupportedError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
