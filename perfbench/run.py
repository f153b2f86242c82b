"""wardflow benchmark: synth -> analyze -> eval on seeded ward sessions.

    python3 perfbench/run.py --workload hd-motion --seed 5 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A closed loop with one client: one CLI command at a time, called
in-process through ``wardflow.cli.main``, no extra threads.  Each run
sets up SETUP_REPS times (inputs, warm-up) and then repeats whole
sessions until ``--seconds`` have passed (at least one).  ``--trace 0``
prints the end-to-end metrics and takes peak memory in one more analyze
outside the timed loop; ``--trace 1`` runs one more session with every
layer rebound to a timing wrapper and prints the per-layer metrics.
Every command's outputs are checked against truth.json, and against the
golden digests at the default seed.  The last stdout line is the result
JSON; the line before it records the environment and the checks.
``--workload all`` runs every workload both ways and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter, process_time

from layers import BINDINGS, layer_metrics
from tracer import Tracer, traced
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
SETUP_REPS = 3
DIGESTED = {"analyze": ("report.json", "motion.csv"), "eval": ("eval.json",)}
BLOB_MIN_COUNT_ACC = 0.95  # acceptance criterion 9

# Warm-up session: every code path (flow, blob, eval) on a few tiny frames.
WARMUP = {"duration": 4, "resolution": [48, 36], "noise_sigma_c": 0.1,
          "patient": {"keyframes": [{"t": 0, "box": [14, 8, 12, 20]},
                                    {"t": 3, "box": [16, 9, 12, 20]}]},
          "workers": [{"keyframes": [{"t": 0, "box": [30, 8, 8, 20]}]}]}


def import_wardflow():
    """`wardflow.cli.main` from this checkout's src/, or None if it has none."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import wardflow.cli
    except ImportError:
        return None
    if Path(wardflow.cli.__file__).resolve().parent != src / "wardflow":
        return None
    return wardflow.cli.main


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def call(cli_main, argv: list[str], tracer: Tracer | None = None) -> tuple[int, float]:
    """One CLI command: exit code (-1 if it raised) and wall seconds."""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli_main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli_main(argv)
    except Exception:  # a traceback is a failed command, not a dead benchmark
        traceback.print_exc()
        code = -1
    return code, perf_counter() - start


def argvs(wl: Workload, inputs: Path, out: Path) -> dict[str, list[str]]:
    session = out / "session"
    source = ["--dets", str(session / "truth_dets.jsonl")] if wl.truth_dets else []
    riker = ["--riker", str(inputs / "riker.csv")] if wl.riker_csv is not None else []
    return {
        "synth": ["synth", "--scenario", str(inputs / "scenario.json"),
                  "--seed", str(wl.seed), "--out", str(session)],
        "analyze": ["analyze", "--manifest", str(session / "manifest.json"),
                    *source, *riker, *wl.analyze_opts, "--out", str(out / "report")],
        "eval": ["eval", "--dets", str(inputs / "noisy_dets.jsonl"),
                 "--gt", str(session / "truth_dets.jsonl"), "--out", str(out / "eval")],
    }


def warm_up(cli_main, work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "scenario.json").write_text(json.dumps(WARMUP))
    session = work / "session"
    for argv in (["synth", "--scenario", str(work / "scenario.json"), "--out", str(session)],
                 ["analyze", "--manifest", str(session / "manifest.json"),
                  "--dets", str(session / "truth_dets.jsonl"), "--out", str(work / "a")],
                 ["analyze", "--manifest", str(session / "manifest.json"), "--blob",
                  "--no-motion", "--out", str(work / "b")],
                 ["eval", "--dets", str(session / "truth_dets.jsonl"),
                  "--gt", str(session / "truth_dets.jsonl"), "--out", str(work / "e")]):
        call(cli_main, argv)
    shutil.rmtree(work)


def spearman(pairs: list[tuple[float, float]]) -> float | None:
    """Rank correlation with average ranks for ties; None when undefined."""
    from scipy.stats import spearmanr
    if len(pairs) < 3:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input gives NaN and a warning
        rho = float(spearmanr(*zip(*pairs)).statistic)
    return None if math.isnan(rho) else rho


def quality(out: Path) -> dict:
    """The session's analysis report against truth.json."""
    truth = json.loads((out / "session" / "truth.json").read_text())
    report = json.loads((out / "report" / "report.json").read_text())
    counts = truth["worker_counts"]
    seconds = len(counts)  # synth renders one frame per second
    # Worker motion next to the bed leaks into the patient box through the
    # flow window, so the rank correlation uses seconds with no worker.
    gaps = set(report["gaps"])
    alone = [(s["raw"], truth["displacement"][round(s["t"])]) for s in report["motion"]
             if s["t"] not in gaps and counts[round(s["t"])] == 0]
    return {
        "worker_count_acc": sum(p == q for p, q in
                                zip(report["per_second_worker_counts"], counts)) / seconds,
        "nursing_acc": 1.0 - abs(report["nursing_time_s"] - sum(counts)) / seconds,
        "interaction_acc": 1.0 - abs(report["interaction_time_s"]
                                     - sum(truth["interaction"])) / seconds,
        "motion_spearman": spearman(alone),
        "exact": (report["per_second_worker_counts"] == counts
                  and report["nursing_time_s"] == sum(counts)
                  and report["interaction_time_s"] == sum(truth["interaction"])),
        "truth_nursing_s": sum(counts),
    }


def digests(out: Path, command: str) -> dict[str, str]:
    sub = "report" if command == "analyze" else "eval"
    return {name: hashlib.sha256((out / sub / name).read_bytes()).hexdigest()
            for name in DIGESTED[command]}


def _truth_check(wl: Workload, command: str, out: Path) -> str:
    q = quality(out)
    if command == "analyze":
        if wl.truth_dets and not q["exact"]:
            return "counts, nursing or interaction time differ from truth.json"
        if not q["worker_count_acc"] >= BLOB_MIN_COUNT_ACC:
            return f"worker counting accuracy {q['worker_count_acc']:.4f} < {BLOB_MIN_COUNT_ACC}"
    else:
        ev = json.loads((out / "eval" / "eval.json").read_text())
        if ev["nursing_time"]["label_s"] != q["truth_nursing_s"]:
            return "eval label nursing time differs from truth.json"
        if not 0.0 < ev["map_overall"] <= 1.0:
            return f"map_overall {ev['map_overall']} outside (0, 1]"
    return ""


def check(wl: Workload, command: str, code: int, out: Path,
          expected: dict[str, str] | None) -> str:
    """Why the command failed, or "" when its outputs are correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        if command == "synth":
            json.loads((out / "session" / "truth.json").read_text())
            return ""
        reason = _truth_check(wl, command, out)
        found = digests(out, command)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    for name, digest in found.items():
        if not reason and expected is not None and expected.get(name) != digest:
            reason = f"{name} differs from the reference digest"
    return reason


class Tally:
    """Attempted and failed commands, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")
            print(f"FAILED {label}: {reason}", file=sys.stderr)


def run_session(cli_main, wl, inputs, out, expected, tally, label, tracer=None):
    """synth -> analyze -> eval; returns (session_s, analyze_s, digests)."""
    times, found = {}, {}
    for command, argv in argvs(wl, inputs, out).items():
        code, times[command] = call(cli_main, argv, tracer)
        reason = check(wl, command, code, out, expected)
        tally.add(f"{label} {command}", reason)
        if command in DIGESTED and not reason:
            found.update(digests(out, command))
    return sum(times.values()), times["analyze"], found


def run(cli_main, name: str, seed: int, seconds: float, trace: int, work: Path,
        import_s: float = 0.0, sizes: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (info, result) as printed."""
    expected = None
    if seed == DEFAULT_SEED and not sizes:
        expected = json.loads(GOLDEN.read_text())[name]

    setup = []
    inputs = work / "inputs"
    for _ in range(SETUP_REPS):
        start = perf_counter()
        wl = WORKLOADS[name](seed, **(sizes or {}))
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        for fname, text in wl.files().items():
            (inputs / fname).write_text(text)
        warm_up(cli_main, work / "warmup")
        setup.append(perf_counter() - start)

    tally = Tally()
    session_s, analyze_s, session_cpu_s = [], [], []
    first, q, out = None, {}, None
    start = perf_counter()
    while not session_s or perf_counter() - start < seconds:
        if out is not None:
            shutil.rmtree(out)
        out = work / f"s{len(session_s)}"
        cpu = process_time()
        total, analyze, found = run_session(cli_main, wl, inputs, out, expected, tally,
                                            f"session {len(session_s)}")
        session_cpu_s.append(process_time() - cpu)
        session_s.append(total)
        analyze_s.append(analyze)
        if first is None:
            first = found
            if not tally.failures:
                q = quality(out)
                q["map_overall"] = json.loads((out / "eval" / "eval.json").read_text())["map_overall"]
            expected = expected or found

    if trace:
        shutil.rmtree(out)
        tracer = Tracer()
        with traced(tracer, BINDINGS):
            run_session(cli_main, wl, inputs, work / "traced", expected, tally,
                        "traced session", tracer)
        metrics = layer_metrics(tracer, statistics.median(analyze_s))
    else:
        shutil.rmtree(out / "report")
        tracemalloc.start()
        try:
            code, _ = call(cli_main, argvs(wl, inputs, out)["analyze"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tally.add("peak-memory analyze", check(wl, "analyze", code, out, expected))
        metrics = {
            "setup_s": (import_s + statistics.median(setup), "s"),
            "session_s": (statistics.median(session_s), "s"),
            "analyze_s": (statistics.median(analyze_s), "s"),
            "analyze_peak_mb": (peak / 1e6, "MB"),
            "worker_count_acc": (q.get("worker_count_acc", 0.0), "frac"),
            "nursing_acc": (q.get("nursing_acc", 0.0), "frac"),
            "interaction_acc": (q.get("interaction_acc", 0.0), "frac"),
            "map_overall": (q.get("map_overall", 0.0), "frac"),
        }

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "sessions": len(session_s), "session_s": session_s, "analyze_s": analyze_s,
            "session_cpu_s": session_cpu_s,
            "setup_reps": SETUP_REPS, "setup_s": setup,
            "environment": environment(), "digests": first,
            "motion_spearman": q.get("motion_spearman"), "failures": tally.failures}
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    cli_main = import_wardflow()
    import_s = perf_counter() - start
    if cli_main is None:
        print(f"error: no wardflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload != "all":
            info, result = run(cli_main, args.workload, args.seed, args.seconds,
                               args.trace, work, import_s)
            print(json.dumps(info))
            print(json.dumps(result))
            return 0
        attempted, failures, table = 0, [], {}
        for name in WORKLOADS:
            for trace in (0, 1):
                info, result = run(cli_main, name, args.seed, args.seconds, trace,
                                   work, import_s)
                print(json.dumps(info))
                attempted += result["attempted"]
                failures += [f"{name} {f}" for f in info["failures"]]
                for metric, m in result["metrics"].items():
                    table[f"{name}/{metric}"] = m
                    print(f"{name:14s} {metric:26s} {m['value']:>14.6g} {m['unit']}")
                print(f"{name:14s} {'failed_frac':26s} "
                      f"{result['failed'] / result['attempted']:>14.6g} frac")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": table}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
