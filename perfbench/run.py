"""tsdiag benchmark: seeded synthetic sequences through the real CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense_traffic --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                       # every workload, end to end

With ``--trace 0`` each operation runs as a fresh ``python -m tsdiag.cli``
child, one child at a time, and the end-to-end metrics are medians over
the samples of one run.  With ``--trace 1`` the run is in-process instead:
public functions of each module are wrapped with timing spans to give the
per-layer metrics (see layers.py).  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment and the workload sizes,
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120.0
MIN_ROUNDS = 3        # end-to-end rounds per run, even past --seconds
IDENTITY_TOLERANCE_M = 2e-6  # three values each rounded to 6 decimals
EXACT_RMSE_M = 1e-6

# Scene specs and sanity limits of each workload's evaluation reports (why
# each workload exists is in BENCHMARK.json).  The limits sit well clear of
# every seed tried, so they catch a broken tracker or range model, not a
# small shift in the score.
WORKLOADS = {
    "cold_small": {
        "spec": None,
        "min_hota": 1.0,
        "max_rmse_m": EXACT_RMSE_M,
    },
    "dense_traffic": {
        "spec": dict(frames=600, oncoming=40, same_direction=18, leads=0,
                     jitter_px=2.0, drop_rate=0.05, oxts_layout="file"),
        "min_hota": 0.2,
        "max_rmse_m": 25.0,
    },
    "long_horizon": {
        "spec": dict(frames=3000, oncoming=15, same_direction=0, leads=2,
                     jitter_px=1.0, drop_rate=0.02, oxts_layout="dir"),
        "min_hota": 0.15,
        "max_rmse_m": 25.0,
    },
}

# printed and recorded but not gated: both are 0 on some workloads
REPORTED_ONLY_UNITS = {"trajectory_rmse_m": "m", "error_rate": "ratio"}

SETUP_CODE = "import sys, tsdiag; from tsdiag.config import load_config; load_config(sys.argv[1])"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_benchmark() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], log_path: Path) -> dict:
    """Run one interpreter child; wall time, its own CPU time and max RSS."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode if ready else "timeout",
    }


def high_percentile(values: list[float]) -> dict:
    """Highest of p50..p99 with at least ten samples above it (nearest rank)."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": pct, "value": ordered[rank - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n,
            "note": "fewer than 11 samples: no percentile has ten above it"}


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "high": high_percentile(values),
            "samples": values}


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def prepare(workload: str, seed: int) -> dict:
    """Write the workload's input files; same seed, same bytes."""
    if not (SRC / "tsdiag" / "__init__.py").is_file():
        raise BenchError(f"tsdiag sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    directory = WORK / workload
    shutil.rmtree(directory, ignore_errors=True)
    spec = WORKLOADS[workload]["spec"]
    if spec is None:
        from tsdiag.synth import write_fixture
        config = write_fixture(str(directory))
        with open(directory / "labels.txt") as fh:
            boxes = sum(1 for line in fh if line.strip())
        fixes = len(os.listdir(directory / "oxts"))
        sizes = {"frames": fixes, "label_boxes": boxes, "vehicles": 1,
                 "oxts_fixes": fixes, "oxts_layout": "dir", "jitter_px": 0.0,
                 "drop_rate": 0.0}
        return {"config": config, "sizes": sizes, "dir": directory}
    from scenes import SceneSpec, write_scene
    scene = write_scene(SceneSpec(**spec), seed, str(directory), workload)
    return {"config": scene["config"], "sizes": scene["sizes"], "dir": directory}


def read_report_value(path: Path, key: str) -> float:
    with open(path) as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return float(value)
    raise ValueError(f"{path.name} has no {key!r} line")


def check_diagram(csv_path: Path) -> dict:
    """sha256, row count, and the link = probe + range identity on every row."""
    data = csv_path.read_bytes()
    rows = data.decode().splitlines()
    header = rows[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    worst = 0.0
    vehicle_rows = 0
    for row in rows[1:]:
        fields = row.split(",")
        if fields[col["track_id"]] == "0":
            continue
        vehicle_rows += 1
        link = float(fields[col["link_distance_m"]])
        probe = float(fields[col["probe_distance_m"]])
        rng = float(fields[col["camera_range_m"]])
        worst = max(worst, abs(link - probe - rng))
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows) - 1,
            "vehicle_rows": vehicle_rows, "identity_error_m": worst}


def clear_outputs(out: Path) -> None:
    if out.is_dir():
        for entry in out.iterdir():
            entry.unlink()


def end_to_end(workload: str, seconds: float, prepared: dict) -> dict:
    config = prepared["config"]
    out = prepared["dir"] / "out"  # output_dir of both scene writers
    log = prepared["dir"] / "child.log"
    limits = WORKLOADS[workload]
    problems: list[str] = []
    samples = {name: [] for name in ("setup_s", "run_s", "eval_s", "run_cpu_s",
                                     "peak_rss_mb")}
    first: dict = {}  # the first run's diagram and reports; repeats must match
    attempted = failed = 0

    def check_outputs(kind: str) -> list[str]:
        diagram = check_diagram(out / "diagram.csv")
        found = {"diagram": diagram["sha256"]}
        wrong = []
        if diagram["identity_error_m"] > IDENTITY_TOLERANCE_M:
            wrong.append(f"link != probe + range by {diagram['identity_error_m']} m")
        if kind == "eval":
            found["hota"] = read_report_value(out / "hota_report.txt", "hota")
            found["trajectory_rmse_m"] = read_report_value(
                out / "trajectory_report.txt", "mean_rmse_m")
            if not found["hota"] >= limits["min_hota"]:
                wrong.append(f"hota {found['hota']} below {limits['min_hota']}")
            if not found["trajectory_rmse_m"] <= limits["max_rmse_m"]:
                wrong.append(f"trajectory_rmse_m {found['trajectory_rmse_m']} "
                             f"above {limits['max_rmse_m']}")
        first.setdefault("diagram_record", diagram)
        for name, value in found.items():
            if first.setdefault(name, value) != value:
                wrong.append(f"{name} differs from the first repeat: "
                             f"{value} != {first[name]}")
        return wrong

    def operation(kind: str, args: list[str]) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        if kind != "setup":
            clear_outputs(out)
        result = run_child(args, log)
        if result["exit"] != 0:
            tail = log.read_text(errors="replace")[-600:]
            wrong = [f"exit {result['exit']}: {tail}"]
        elif kind == "setup":
            wrong = []
        else:
            try:
                wrong = check_outputs(kind)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                wrong = [f"unreadable output: {exc!r}"]
        if wrong:
            failed += 1
            problems.extend(f"{kind}: {w}" for w in wrong)
            return None
        return result

    # untimed warm-up: byte-compiles the sources, as an installed package has
    run_child(["-c", "import tsdiag.cli"], log)

    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        res = operation("setup", ["-c", SETUP_CODE, config])
        if res:
            samples["setup_s"].append(res["wall_s"])
        res = operation("run", ["-m", "tsdiag.cli", "run", config])
        if res:
            samples["run_s"].append(res["wall_s"])
            samples["run_cpu_s"].append(res["cpu_s"])
        res = operation("eval", ["-m", "tsdiag.cli", "eval", config])
        if res:
            samples["eval_s"].append(res["wall_s"])
            samples["peak_rss_mb"].append(res["max_rss_mb"])
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            break

    metrics = {name: summarize(values) for name, values in samples.items() if values}
    for name in ("hota", "trajectory_rmse_m"):
        metrics[name] = {"median": first.get(name, math.nan)}
    metrics["error_rate"] = {"median": failed / attempted}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "diagram": first.get("diagram_record"),
        "metrics": metrics,
    }


def run_workload(bench: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    prepared = prepare(workload, seed)
    if trace:
        import layers
        outcome = layers.traced_run(prepared["config"], seconds, prepared["dir"],
                                    run_child)
    else:
        outcome = end_to_end(workload, seconds, prepared)
    listed = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if not trace:
        units.update(REPORTED_ONLY_UNITS)
    for name, stats in outcome["metrics"].items():
        stats["unit"] = units[name]
    absent = outcome.setdefault("absent", {})
    for name in units:
        if name not in outcome["metrics"]:
            absent.setdefault(name, "no sample: every operation that measures it failed")
    record = {
        "workload": workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "sizes": prepared["sizes"],
        **outcome,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_summary(record: dict) -> None:
    sizes = record["sizes"]
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} frames={sizes['frames']} "
          f"label_boxes={sizes['label_boxes']} vehicles={sizes['vehicles']} "
          f"oxts_fixes={sizes['oxts_fixes']} | nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    for name, stats in record["metrics"].items():
        line = f"{name:32s} {stats['median']:.6g} {stats['unit']}"
        high = stats.get("high")
        if high:
            line += f"  (median of {high['samples']}"
            if high["percentile"] is not None:
                line += f"; p{high['percentile']} {high['value']:.6g}"
            line += ")"
        print(line)
    for name, reason in record.get("absent", {}).items():
        print(f"{name:32s} absent: {reason}")
    if record.get("diagram"):
        print(f"# diagram.csv sha256={record['diagram']['sha256']} "
              f"rows={record['diagram']['rows']}")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(f"# result file: {record['path']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        bench = load_benchmark()
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        for workload in workloads:
            record = run_workload(bench, workload, args.seed, seconds, bool(args.trace))
            print_summary(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    wanted = [name for name in listed if name in record["metrics"]
              and math.isfinite(record["metrics"][name]["median"])]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["median"],
                           "unit": record["metrics"][name]["unit"]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
