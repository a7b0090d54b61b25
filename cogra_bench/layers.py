"""Per-layer measurement from outside the program.

Two mechanisms, both used only in the traced run:

* accumulator-backed timers assigned over the batch runner's calls into
  ``events_from_pandas`` (decode) and ``run_approach`` (kernel), and
  wrapped around the function handed to ``applyInPandas`` /
  ``applyInPandasWithState`` (udf). cloudpickle ships the wrappers to the
  Python workers and the accumulators bring the sums back;
* the Spark event log, for the shuffle, the stage spans and the SQL
  metrics of the grouped-pandas node (Arrow bytes and Python worker time).
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import repro.core.spark_runner as spark_runner

PYTHON_BYTES_IN = "data sent to Python workers"
PYTHON_BYTES_OUT = "data returned from Python workers"
PYTHON_INIT = ("time to start Python workers", "time to initialize Python workers")
PYTHON_RUN = "time to run Python workers"


class Timers:
    """Accumulators that sum calls, seconds and rows per layer."""

    NAMES = ("decode.calls", "decode.s", "decode.rows",
             "kernel.calls", "kernel.s", "udf.calls", "udf.s")

    def __init__(self, sc) -> None:
        self.acc = {n: sc.accumulator(0.0) for n in self.NAMES}

    def values(self) -> dict[str, float]:
        return {n: a.value for n, a in self.acc.items()}


def _timed(fn, calls, secs, rows=None):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            secs.add(time.perf_counter() - t0)
            calls.add(1)
            if rows is not None:
                rows.add(len(args[0]))
    return timed


@contextmanager
def traced(timers: Timers):
    """Install the timers for queries planned inside the block.

    The runners' UDFs are pickled when the query is built, so the block
    must enclose the call to ``run_query`` / ``run_query_streaming``.
    """
    from pyspark.sql.pandas.group_ops import PandasGroupedOpsMixin as Ops

    a = timers.acc
    saved = (spark_runner.events_from_pandas, spark_runner.run_approach,
             Ops.applyInPandas, Ops.applyInPandasWithState)

    def apply_in_pandas(self, func, schema):
        def udf(key, pdf):  # pyspark passes the key only to two-argument functions
            t0 = time.perf_counter()
            try:
                return func(key, pdf)
            finally:
                a["udf.s"].add(time.perf_counter() - t0)
                a["udf.calls"].add(1)
        return saved[2](self, udf, schema)

    def apply_with_state(self, func, *args, **kwargs):
        def fold(key, pdfs, state):
            t0 = time.perf_counter()
            try:
                return iter(list(func(key, pdfs, state)))
            finally:
                a["udf.s"].add(time.perf_counter() - t0)
                a["udf.calls"].add(1)
        return saved[3](self, fold, *args, **kwargs)

    spark_runner.events_from_pandas = _timed(
        saved[0], a["decode.calls"], a["decode.s"], a["decode.rows"])
    spark_runner.run_approach = _timed(saved[1], a["kernel.calls"], a["kernel.s"])
    Ops.applyInPandas = apply_in_pandas
    Ops.applyInPandasWithState = apply_with_state
    try:
        yield
    finally:
        (spark_runner.events_from_pandas, spark_runner.run_approach,
         Ops.applyInPandas, Ops.applyInPandasWithState) = saved


def read_event_log(log_dir: Path) -> list[dict]:
    events = []
    for f in sorted(log_dir.rglob("events_*")):
        with f.open() as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    return events


def _plan_metric_types(plan: dict, out: dict[int, str]) -> None:
    for m in plan.get("metrics", []):
        out[m["accumulatorId"]] = m["metricType"]
    for child in plan.get("children", []):
        _plan_metric_types(child, out)


def _to_base_unit(value: float, metric_type: str) -> float:
    """SQL metric value in seconds (timings) or as is (sizes, sums)."""
    if metric_type == "timing":
        return value / 1e3
    if metric_type == "nsTiming":
        return value / 1e9
    return value


def spark_layers(events: list[dict], job_group: str) -> dict[str, float]:
    """Stage spans, shuffle and Python-worker metrics of the jobs in
    ``job_group`` (the traced query)."""
    metric_types: dict[int, str] = {}
    job_stages: dict[int, list[int]] = {}
    job_times: list[int] = []
    stage_span: dict[int, float] = {}
    tasks: dict[int, list[dict]] = {}
    for e in events:
        kind = e["Event"]
        if "sparkPlanInfo" in e:
            _plan_metric_types(e["sparkPlanInfo"], metric_types)
        elif kind == "SparkListenerJobStart":
            if (e.get("Properties") or {}).get("spark.jobGroup.id") == job_group:
                job_stages[e["Job ID"]] = e["Stage IDs"]
                job_times.append(e["Submission Time"])
        elif kind == "SparkListenerJobEnd" and e["Job ID"] in job_stages:
            job_times.append(e["Completion Time"])
        elif kind == "SparkListenerStageCompleted":
            info = e["Stage Info"]
            stage_span[info["Stage ID"]] = (
                info["Completion Time"] - info["Submission Time"]) / 1e3
        elif kind == "SparkListenerTaskEnd":
            tasks.setdefault(e["Stage ID"], []).append(e)
    stages = {s for ids in job_stages.values() for s in ids if s in stage_span}

    def sql(task: dict, name: str) -> float:
        return sum(
            _to_base_unit(float(acc["Update"]), metric_types.get(acc["ID"], "sum"))
            for acc in task["Task Info"].get("Accumulables", [])
            if acc.get("Name") == name and "Update" in acc
        )

    out = dict.fromkeys(
        ("jobs_span_s", "prefix.s", "kernel_stage.s", "kernel_stage.tasks",
         "kernel_stage.task_skew", "shuffle.bytes", "shuffle.records",
         "shuffle.write_s", "pyworker.bytes_in", "pyworker.bytes_out",
         "pyworker.init_s", "pyworker.run_s"), 0.0)
    if job_times:
        out["jobs_span_s"] = (max(job_times) - min(job_times)) / 1e3
    run_ms: list[float] = []
    for s in sorted(stages):
        st = tasks.get(s, [])
        if any(acc.get("Name") == PYTHON_RUN
               for t in st for acc in t["Task Info"].get("Accumulables", [])):
            out["kernel_stage.s"] += stage_span[s]
            out["kernel_stage.tasks"] += len(st)
            run_ms += [t["Task Metrics"]["Executor Run Time"] for t in st]
            for t in st:
                out["pyworker.bytes_in"] += sql(t, PYTHON_BYTES_IN)
                out["pyworker.bytes_out"] += sql(t, PYTHON_BYTES_OUT)
                out["pyworker.init_s"] += sum(sql(t, n) for n in PYTHON_INIT)
                out["pyworker.run_s"] += sql(t, PYTHON_RUN)
        else:
            wrote = [t["Task Metrics"]["Shuffle Write Metrics"] for t in st]
            if any(w["Shuffle Records Written"] for w in wrote):
                out["prefix.s"] += stage_span[s]
            out["shuffle.bytes"] += sum(w["Shuffle Bytes Written"] for w in wrote)
            out["shuffle.records"] += sum(w["Shuffle Records Written"] for w in wrote)
            out["shuffle.write_s"] += sum(w["Shuffle Write Time"] for w in wrote) / 1e9
    if run_ms:
        out["kernel_stage.task_skew"] = max(run_ms) / max(statistics.median(run_ms), 1.0)
    return out
