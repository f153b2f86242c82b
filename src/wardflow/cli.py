"""Command-line entry point: synth / analyze / eval subcommands.

Exit codes are a stable contract for scripting: 0 success, 2 missing or
unreadable files, 3 schema/format errors, 4 bad configuration.  A JSON
output whose total overflows (a huge `dt`) exits 4, never writing `Infinity`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .analytics import SessionReport, count_workers, interaction_time, read_riker_csv
from .boxes import BoundingBox, FrameDetections, ObjectClass, match_detections
from .detect import blob_detect, parse_detections_jsonl
from .errors import FormatError, UnsupportedError, ValidationError
from .evaluation import (DEFAULT_IOU_THRESHOLDS, APTable, counting_accuracy,
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


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Create `out` and write each file whole: to a ".tmp" name, then renamed."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        tmp = out / (name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, out / name)


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _box_fields(b: BoundingBox) -> list[float]:
    return [b.x, b.y, b.w, b.h]


def _time_table(name: str, predicted: float, label: float) -> str:
    """A predicted/label/error time table, in h/m/s."""
    cells = [format_duration(v) for v in (predicted, label, time_error(predicted, label))]
    return _csv("video,predicted,label,error", [",".join([name, *cells])])


def _time_json(predicted: float, label: float) -> dict[str, float]:
    return {"predicted_s": predicted, "label_s": label, "error_s": time_error(predicted, label)}


def _analyze_files(report: SessionReport, ts: list[float]) -> dict[str, str]:
    """Every file `analyze` writes, by name; `ts` are the frame times."""
    doc = {
        "nursing_time_s": report.nursing_time_s,
        "interaction_time_s": report.interaction_time_s,
        "per_second_worker_counts": report.per_second_worker_counts,
        "events": [{"t": e.timestamp, "ratio": e.overlap_ratio,
                    "patient_box": _box_fields(e.patient_box),
                    "worker_box": _box_fields(e.worker_box)} for e in report.events],
        "motion": [{"t": s.timestamp, "raw": s.raw, "smoothed": s.smoothed}
                   for s in report.motion],
        "riker": [{"score": g.score, "mean": g.mean, "q25": g.q25, "q50": g.q50,
                   "q75": g.q75, "n": g.n} for g in report.riker],
        "gaps": report.gaps,
    }
    events = [[repr(e.timestamp), repr(e.overlap_ratio),
               ":".join(map(str, _box_fields(e.patient_box))),
               ":".join(map(str, _box_fields(e.worker_box)))] for e in report.events]
    files = {
        "report.json": json.dumps(doc, indent=2, allow_nan=False) + "\n",
        "motion.csv": _csv("t,raw,smoothed", [f"{s.timestamp!r},{s.raw!r},{s.smoothed!r}"
                                              for s in report.motion]),
        "events.csv": _csv("t,ratio,patient_box,worker_box", [",".join(e) for e in events]),
        "activity.svg": render_chart([
            Panel("Workers per second", [Series(
                "workers", ts, [float(c) for c in report.per_second_worker_counts], step=True)]),
            Panel("Physical interaction per second", [Series(
                "interaction", ts, [float(v) for v in report.per_second_interaction],
                step=True)]),
        ]),
    }
    if report.motion:
        mt = [s.timestamp for s in report.motion]
        files["motion.svg"] = render_chart([Panel("Patient motion over time", [
            Series("raw", mt, [s.raw for s in report.motion]),
            Series("smoothed", mt, [s.smoothed for s in report.motion])])])
    return files


def _eval_files(table: APTable, name: str, worker_acc: float, pi_acc: float,
                nursing: tuple[float, float], interaction: tuple[float, float]) -> dict[str, str]:
    """Every file `eval` writes, by name; `nursing` and `interaction` are
    (predicted, label) seconds, and `name` labels the table rows."""
    def cells(by_class: dict[ObjectClass, float]) -> str:
        """One cell per class column; empty for a class with no ground truth."""
        return ",".join(f"{by_class[c]:.4f}" if c in by_class else "" for c in ObjectClass)

    map_rows = [f"mAP@{thr:g},{cells({c: row[thr] for c, row in table.per_class.items()})},"
                for thr in table.thresholds]
    overall = f"{table.overall:.4f}" if table.overall is not None else ""
    return {
        "map.csv": _csv(f"metric,{','.join(c.value for c in ObjectClass)},overall",
                        [*map_rows, f"average,{cells(table.class_averages)},{overall}"]),
        "accuracy.csv": _csv("video,worker_counting,interaction_counting",
                             [f"{name},{worker_acc:.4f},{pi_acc:.4f}"]),
        "nursing_time.csv": _time_table(name, *nursing),
        "interaction_time.csv": _time_table(name, *interaction),
        "eval.json": json.dumps({
            "map": {c.value: {f"{t:g}": row[t] for t in table.thresholds}
                    for c, row in table.per_class.items()},
            "map_class_averages": {c.value: v for c, v in table.class_averages.items()},
            "map_overall": table.overall,
            "worker_counting_accuracy": worker_acc,
            "interaction_counting_accuracy": pi_acc,
            "nursing_time": _time_json(*nursing),
            "interaction_time": _time_json(*interaction),
        }, indent=2, allow_nan=False) + "\n",
    }


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

    _write_files(Path(args.out), _analyze_files(report, [e.timestamp for e in manifest.frames]))
    print(f"nursing_time_s={report.nursing_time_s} "
          f"interaction_time_s={report.interaction_time_s} "
          f"events={len(report.events)}")
    return EXIT_OK


def _per_second_series(frames: list[FrameDetections], conf_min: float,
                       tau: float) -> tuple[list[int], list[int]]:
    """Worker counts and interaction indicators, one per frame."""
    return ([count_workers(f, conf_min) for f in frames],
            interaction_time(frames, tau, conf_min).indicators)


def _cmd_eval(args) -> int:
    thresholds = tuple(float(v) for v in args.thresholds.split(",") if v)
    if not thresholds or any(not 0.0 < t < 1.0 for t in thresholds):
        raise ValueError(f"bad IoU thresholds {args.thresholds!r}")
    config = SessionConfig(tau=args.tau, dt=args.dt, conf_min=args.conf_min)
    dets = _load_detections_file(args.dets)
    gts = _load_detections_file(args.gt)

    preds = match_detections(gts, dets)
    table = mean_ap(preds, gts, thresholds)
    pred_counts, pred_pi = _per_second_series(preds, config.conf_min, config.tau)
    label_counts, label_pi = _per_second_series(gts, config.conf_min, config.tau)
    worker_acc = counting_accuracy(pred_counts, label_counts)
    pi_acc = counting_accuracy(pred_pi, label_pi)
    _write_files(Path(args.out), _eval_files(
        table, args.name, worker_acc, pi_acc,
        nursing=(sum(pred_counts) * config.dt, sum(label_counts) * config.dt),
        interaction=(sum(pred_pi) * config.dt, sum(label_pi) * config.dt)))
    overall = f"mAP={table.overall:.4f} " if table.overall is not None else ""
    print(f"{overall}worker_acc={worker_acc:.4f} pi_acc={pi_acc:.4f}")
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
