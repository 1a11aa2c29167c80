"""Per-layer metrics from one in-process traced run.

The program has no tracing of its own yet, so spans are recorded here:
each entry of WRAPS replaces a public function, in the namespace of the
module that calls it, with a wrapper that records a span (name, start,
end, parent) and optionally a count taken from the call.  Spans are kept
in memory and written out once the run is over.  A layer's self time is
its span minus the spans of its children.

End-to-end numbers never come from here; ``trace.overhead`` compares the
traced ``run_pipeline`` with untraced in-process repeats of it.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import time
import traceback
from pathlib import Path

IMPORTTIME_SAMPLES = 5
CONFIG_LOAD_SAMPLES = 20
UNTRACED_SHARE = 0.4   # of --seconds spent on untraced in-process repeats
MIN_REPEATS = 2


def _points(diagram) -> int:
    return sum(len(points) for points in diagram.vehicle_trajectories.values())


# (module, attribute, span name, count taken from (args, result) or None)
WRAPS = [
    ("tsdiag.pipeline", "run_pipeline", "pipeline.run", None),
    ("tsdiag.pipeline", "write_run_outputs", "pipeline.write", None),
    ("tsdiag.pipeline", "write_eval_outputs", "pipeline.evaluate", None),
    ("tsdiag.pipeline", "parse_label_file", "kitti.labels", lambda a, r: len(r)),
    ("tsdiag.pipeline", "load_oxts", "kitti.oxts", None),
    ("tsdiag.pipeline", "perturb_ground_truth", "kitti.perturb", None),
    ("tsdiag.tracker", "Tracker.run", "tracker.run", lambda a, r: len(r)),
    ("tsdiag.tracker", "Tracker.step", "tracker.step", None),
    ("tsdiag.tracker", "kalman_predict", "tracker.predict", None),
    ("tsdiag.tracker", "associate", "tracker.associate",
     lambda a, r: (len(a[1]), len(r[0]))),
    ("tsdiag.tracker", "gating_distance", "tracker.gate", None),
    ("tsdiag.tracker", "solve_assignment", "tracker.assign", None),
    ("tsdiag.tracker", "kalman_update", "tracker.update", None),
    ("tsdiag.pipeline", "opposite_lane_filter", "trajectory.lane_filter", None),
    ("tsdiag.pipeline", "build_diagram", "trajectory.build_diagram",
     lambda a, r: _points(r)),
    ("tsdiag.trajectory", "range_from_height", "photogrammetry.range", None),
    ("tsdiag.geodesy", "geodesic_inverse", "geodesy.solve", None),
    ("tsdiag.pipeline", "diagram_to_csv", "trajectory.csv", None),
    ("tsdiag.pipeline", "render_svg", "render.svg", lambda a, r: len(r.encode())),
    ("tsdiag.pipeline", "range_error_report", "evaluation.range_report", None),
    ("tsdiag.pipeline", "build_reference_diagram", "evaluation.reference", None),
    ("tsdiag.pipeline", "trajectory_error_report", "evaluation.trajectory_report", None),
    ("tsdiag.pipeline", "hota", "evaluation.hota", None),
    ("tsdiag.evaluation", "solve_assignment", "evaluation.assign", None),
]


class Tracer:
    """In-memory spans: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: dict[str, str] = {}

    def wrap(self, module: str, attribute: str, name: str, count) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError) as exc:
            self.missing[name] = f"{module}.{attribute} not found: {exc}"
            return
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, None])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                spans[index][4] = count(args, result)
            return result

        setattr(owner, leaf, traced)
        self._restore.append((owner, leaf, original))

    def install(self) -> None:
        for entry in WRAPS:
            self.wrap(*entry)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()


class SpanTable:
    """Totals, self times and counts by span name over one traced repeat."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        self.root: list[str] = []
        self.by_name: dict[str, list[int]] = {}
        # a parent span is opened, so appended, before any of its children
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent is not None:
                child_time[parent] += end - start
            self.root.append(name if parent is None else self.root[parent])
            self.by_name.setdefault(name, []).append(i)
        self.self_time = [end - start - child_time[i]
                          for i, (_, start, end, _, _) in enumerate(spans)]

    def select(self, name: str, root: str | None = None,
               parent: str | None = None) -> list[int]:
        chosen = [i for i in self.by_name.get(name, [])
                  if (root is None or self.root[i] == root)
                  and (parent is None or (self.spans[i][3] is not None
                                          and self.spans[self.spans[i][3]][0] == parent))]
        if not chosen:
            raise LookupError(f"no {name} span recorded")
        return chosen

    def total(self, name: str, **where) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.select(name, **where))

    def self_total(self, name: str, **where) -> float:
        return sum(self.self_time[i] for i in self.select(name, **where))

    def calls(self, name: str, **where) -> int:
        return len(self.select(name, **where))

    def counted(self, name: str, **where) -> list:
        return [self.spans[i][4] for i in self.select(name, **where)]

    def durations(self, name: str, **where) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self.select(name, **where)]


def _step_growth(table: SpanTable) -> float:
    steps = table.durations("tracker.step", root="pipeline.run")
    tenth = max(1, len(steps) // 10)
    return statistics.median(steps[-tenth:]) / statistics.median(steps[:tenth])


def _match_ratio(table: SpanTable) -> float:
    pairs = table.counted("tracker.associate", root="pipeline.run")
    return sum(m for _, m in pairs) / sum(d for d, _ in pairs)


def _us_per_detection(table: SpanTable) -> float:
    detections = sum(d for d, _ in table.counted("tracker.associate", root="pipeline.run"))
    return table.total("tracker.run") * 1e6 / detections


RUN = {"root": "pipeline.run"}

# metric -> (spans it needs, value from the span table)
SPAN_METRICS = {
    "kitti.labels_s": (["kitti.labels"], lambda t: t.total("kitti.labels")),
    "kitti.oxts_s": (["kitti.oxts"], lambda t: t.total("kitti.oxts")),
    "kitti.perturb_s": (["kitti.perturb"], lambda t: t.total("kitti.perturb")),
    "kitti.records": (["kitti.labels"],
                      lambda t: sum(t.counted("kitti.labels"))),
    "tracker.run_s": (["tracker.run"], lambda t: t.total("tracker.run")),
    "tracker.predict_s": (["tracker.predict"], lambda t: t.total("tracker.predict")),
    "tracker.associate_s": (["tracker.associate", "tracker.gate", "tracker.assign"],
                            lambda t: t.self_total("tracker.associate")),
    "tracker.gate_s": (["tracker.gate"], lambda t: t.total("tracker.gate")),
    "tracker.assign_s": (["tracker.assign"], lambda t: t.total("tracker.assign")),
    "tracker.update_s": (["tracker.update"], lambda t: t.total("tracker.update")),
    "tracker.us_per_detection": (["tracker.run", "tracker.associate"],
                                 _us_per_detection),
    "tracker.tracks": (["tracker.run"], lambda t: sum(t.counted("tracker.run"))),
    "tracker.match_ratio": (["tracker.associate"], _match_ratio),
    "tracker.step_growth": (["tracker.step"], _step_growth),
    "geodesy.solves": (["geodesy.solve"], lambda t: t.calls("geodesy.solve")),
    "geodesy.us_per_solve": (["geodesy.solve"],
                             lambda t: t.total("geodesy.solve") * 1e6
                             / t.calls("geodesy.solve")),
    "photogrammetry.ranges": (["photogrammetry.range"],
                              lambda t: t.calls("photogrammetry.range")),
    "photogrammetry.us_per_range": (["photogrammetry.range"],
                                    lambda t: t.total("photogrammetry.range") * 1e6
                                    / t.calls("photogrammetry.range")),
    "trajectory.lane_filter_s": (["trajectory.lane_filter"],
                                 lambda t: t.total("trajectory.lane_filter", **RUN)),
    "trajectory.build_diagram_s": (["trajectory.build_diagram"],
                                   lambda t: t.total("trajectory.build_diagram", **RUN)),
    "trajectory.points": (["trajectory.build_diagram"],
                          lambda t: sum(t.counted("trajectory.build_diagram", **RUN))),
    "trajectory.us_per_point": (["trajectory.build_diagram", "geodesy.solve",
                                       "photogrammetry.range"],
                                lambda t: t.self_total("trajectory.build_diagram", **RUN)
                                * 1e6 / sum(t.counted("trajectory.build_diagram", **RUN))),
    "trajectory.csv_s": (["trajectory.csv"], lambda t: t.total("trajectory.csv")),
    "render.svg_s": (["render.svg"], lambda t: t.total("render.svg")),
    "render.svg_bytes": (["render.svg"], lambda t: sum(t.counted("render.svg"))),
    "evaluation.range_report_s": (["evaluation.range_report"],
                                  lambda t: t.total("evaluation.range_report")),
    "evaluation.reference_s": (["evaluation.reference"],
                               lambda t: t.total("evaluation.reference")),
    "evaluation.trajectory_report_s": (["evaluation.trajectory_report"],
                                       lambda t: t.total("evaluation.trajectory_report")),
    "evaluation.hota_s": (["evaluation.hota"], lambda t: t.total("evaluation.hota")),
    "evaluation.hota_assignments": (["evaluation.hota", "evaluation.assign"],
                                    lambda t: t.calls("evaluation.assign",
                                                      parent="evaluation.hota")),
}


def span_metrics(spans: list[list], missing: dict[str, str]) -> tuple[dict, dict]:
    table = SpanTable(spans)
    values, absent = {}, {}
    for metric, (needs, derive) in SPAN_METRICS.items():
        gone = [missing[n] for n in needs if n in missing]
        if gone:
            absent[metric] = "; ".join(gone)
            continue
        try:
            values[metric] = derive(table)
        except (LookupError, ZeroDivisionError) as exc:
            absent[metric] = f"layer did not run: {exc}"
    return values, absent


def import_times(run_child, log: Path) -> dict[str, float]:
    """`python -X importtime` of the CLI module in a fresh interpreter."""
    result = run_child(["-X", "importtime", "-c", "import tsdiag.cli"], log)
    if result["exit"] != 0:
        raise RuntimeError(f"importtime child exited {result['exit']}")
    tsdiag_s = numpy_s = scipy_s = 0.0
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for line in log.read_text().splitlines():
        match = pattern.match(line)
        if not match:
            continue
        self_us, cumulative_us, indent, module = match.groups()
        top = module.split(".")[0]
        if top == "tsdiag" and len(indent) == 1:
            tsdiag_s += int(cumulative_us) / 1e6
        elif top == "numpy":
            numpy_s += int(self_us) / 1e6
        elif top == "scipy":
            scipy_s += int(self_us) / 1e6
    return {"cli.import_s": tsdiag_s, "cli.import_numpy_s": numpy_s,
            "cli.import_scipy_s": scipy_s}


def traced_run(config: str, seconds: float, workdir: Path, run_child) -> dict:
    start = time.perf_counter()
    problems: list[str] = []
    attempted = failed = 0
    samples: dict[str, list[float]] = {}

    def add(values: dict) -> None:
        for key, value in values.items():
            samples.setdefault(key, []).append(value)

    log = workdir / "child.log"
    for _ in range(IMPORTTIME_SAMPLES):
        attempted += 1
        try:
            add(import_times(run_child, log))
        except (RuntimeError, OSError) as exc:
            failed += 1
            problems.append(f"importtime: {exc}")

    from tsdiag import pipeline
    from tsdiag.config import load_config

    for _ in range(CONFIG_LOAD_SAMPLES):
        t0 = time.perf_counter()
        cfg = load_config(config)
        add({"config.load_s": time.perf_counter() - t0})

    digests: set[bytes] = set()
    out_csv = Path(cfg.output_dir) / "diagram.csv"

    def repeat() -> dict[str, float]:
        # the same calls, in the same order, as `tsdiag eval`
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(cfg)
        t1 = time.perf_counter()
        pipeline.write_run_outputs(result)
        t2 = time.perf_counter()
        pipeline.write_eval_outputs(result)
        t3 = time.perf_counter()
        digests.add(out_csv.read_bytes())
        return {"pipeline.run_s": t1 - t0, "pipeline.write_s": t2 - t1,
                "pipeline.evaluate_s": t3 - t2}

    def repeats(until: float, body) -> None:
        nonlocal attempted, failed
        done = 0
        while True:
            t0 = time.perf_counter()
            attempted += 1
            try:
                body()
            except Exception:  # any failure of the program is counted
                failed += 1
                problems.append(traceback.format_exc(limit=-3))
                return
            done += 1
            now = time.perf_counter()
            if done >= MIN_REPEATS and now + (now - t0) > until:
                return

    untraced_until = start + UNTRACED_SHARE * seconds
    repeats(untraced_until, lambda: add(repeat()))

    tracer = Tracer()
    tracer.install()
    traced_run_s: list[float] = []
    absent: dict[str, str] = {}

    def traced_repeat() -> None:
        tracer.reset()
        traced_run_s.append(repeat()["pipeline.run_s"])
        values, gone = span_metrics(tracer.spans, tracer.missing)
        add(values)
        absent.update(gone)

    try:
        repeats(start + seconds, traced_repeat)
    finally:
        tracer.uninstall()

    if len(digests) > 1:
        problems.append("diagram.csv differs between traced and untraced repeats")
    if traced_run_s and samples.get("pipeline.run_s"):
        add({"trace.overhead": statistics.median(traced_run_s)
             / statistics.median(samples["pipeline.run_s"])})

    spans_path = workdir / "trace_spans.json"
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    with open(spans_path, "w") as fh:
        json.dump({"names": names,
                   "columns": ["name", "start_s", "end_s", "parent", "count"],
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans]},
                  fh)

    metrics = {name: {"median": statistics.median(values), "samples": values}
               for name, values in samples.items() if values}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "absent": {name: reason for name, reason in absent.items() if name not in metrics},
        "measured_s": time.perf_counter() - start,
        "spans_file": str(spans_path.name),
        "metrics": metrics,
    }
