"""End-to-end benchmark of ``run_query`` / ``run_query_streaming``.

Usage, from the root of a checkout:

    python3 cogra_bench/run.py --workload any-slide --seed 1 --seconds 36 --trace 0

Each run starts a Spark session configured like ``jobs/_util.get_spark``,
generates the workload's input from ``--seed``, warms up, and repeats the
query through the public entry point for ``--seconds`` seconds. Every
result is checked row by row against an exact in-process reference.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the query
once untraced and once traced and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
environment. Everything the run writes goes to ``.bench_work/`` under the
checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HELD_OUT_SEED = 4242  # never used while tuning; reserved for checking claims
SETUP_REPEATS = 3
# the first query of a session pays JIT and Python worker start-up
BATCH_WARMUPS = 1
DRAIN_TIMEOUT_S = 150
# Other guests on a shared host slow its cores by up to half for minutes at
# a time, each core on its own, which shifts every timing of a run alike. A
# fixed loop, timed on every core between queries while Spark is idle,
# measures that speed; end-to-end times are reported at the speed at which
# one loop takes CAL_REF_S.
CAL_LOOP = 500_000
CAL_REPEATS = 2  # per core
CAL_REF_S = 0.04
TRACE_GROUP = "cogra-bench-traced"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --------------------------------------------------------------------------
# Process tree: peak resident memory and shutdown
# --------------------------------------------------------------------------

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                stat = Path(f"/proc/{d}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_pss_bytes(pid: int) -> int:
    """Resident memory of ``pid`` and its descendants, counting pages that
    forked Python workers share with their parent once (sum of PSS)."""
    total = 0
    for p in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                total += next(int(line.split()[1]) for line in f if line.startswith("Pss:"))
        except (OSError, StopIteration, ValueError):
            continue  # the process ended between listing and reading
    return total * 1024


def calibration_s() -> float:
    """Median time of the fixed calibration loop over every core, now."""
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})  # this thread only
            for _ in range(CAL_REPEATS):
                t0 = time.perf_counter()
                x = 0
                for i in range(CAL_LOOP):
                    x += i * i % 7
                times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(times)


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot: a slow run with high steal was slowed from outside."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class MemorySampler(threading.Thread):
    """Samples the resident memory of this process and its descendants."""

    def __init__(self, interval_s: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.peak = max(self.peak, tree_pss_bytes(os.getpid()))

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak


# --------------------------------------------------------------------------
# Session
# --------------------------------------------------------------------------

def start_session(work: Path, *, trace: bool):
    """A session configured like ``jobs/_util.get_spark``; scratch space,
    temp files and the event log stay under ``work``."""
    (work / "local").mkdir(parents=True, exist_ok=True)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    confs = [
        "spark.driver.host=127.0.0.1",
        "spark.ui.enabled=false",
        "spark.ui.showConsoleProgress=false",
        f"spark.local.dir={work / 'local'}",
    ]
    if trace:
        (work / "eventlog").mkdir(exist_ok=True)
        confs += [
            "spark.eventLog.enabled=true",
            f"spark.eventLog.dir=file://{work / 'eventlog'}",
            "spark.eventLog.compress=false",  # zstandard is not installed
        ]
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[*] " + " ".join(f"--conf {c}" for c in confs) + " pyspark-shell"
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    # every JVM the launch starts keeps its temp files in ``work`` and
    # writes no performance-counter file to /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    from jobs._util import get_spark

    spark = get_spark("cogra-bench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM, and with it the Python workers, ended."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


# --------------------------------------------------------------------------
# Batch and streaming runs
# --------------------------------------------------------------------------

class Outcome:
    """Correctness bookkeeping over every result a run collects."""

    def __init__(self, ref) -> None:
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def score(self, result) -> None:
        from reference import check_result

        chk = check_result(result, self.ref)
        self.attempted += chk.expected
        self.failed += chk.failed
        self.checks.append(chk)

    def raised(self) -> None:
        self.attempted += len(self.ref.rows)
        self.failed += len(self.ref.rows)

    def repeat_failures(self) -> int:
        """Counts that must repeat exactly; a result whose counts differ
        from the first one fails all its rows."""
        first = self.checks[0].counts() if self.checks else None
        return sum(c.expected for c in self.checks[1:] if c.counts() != first)


def setup_batch(spark, wl, seed: int, events: int):
    pdf = df = None
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pdf = wl.make_input(events, seed)
        if df is not None:
            df.unpersist()
        df = spark.createDataFrame(pdf).cache()
        df.count()
        times.append(time.perf_counter() - t0)
    return pdf, df, statistics.median(times)


def run_batch_once(df, wl, outcome: Outcome) -> float | None:
    from repro.core.spark_runner import run_query

    t0 = time.perf_counter()
    try:
        result = run_query(df, wl.query, exact=False).toPandas()
    except Exception as exc:  # a failed query fails all its rows
        print(f"query failed: {exc!r}", file=sys.stderr)
        outcome.raised()
        return None
    wall = time.perf_counter() - t0
    outcome.score(result)
    return wall


def _write_chunks(pdf, src: Path, chunks: int) -> None:
    """Write ``pdf`` as ``chunks`` time-ordered JSON files, one per micro-batch."""
    import numpy as np

    shutil.rmtree(src, ignore_errors=True)
    src.mkdir(parents=True)
    base = time.time() - 1000
    for i, idx in enumerate(np.array_split(np.arange(len(pdf)), chunks)):
        path = src / f"part-{i:03d}.json"
        pdf.iloc[idx].to_json(path, orient="records", lines=True)
        # the file source orders micro-batches by modification time
        os.utime(path, (base + i, base + i))


def setup_stream(spark, wl, seed: int, events: int, work: Path):
    """The timed drains read ``wl.chunks`` chunks of the input; the warm-up
    drain reads the first chunk's events from a source of its own."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pdf = wl.make_input(events, seed)
        _write_chunks(pdf, work / "stream_src", wl.chunks)
        warm = pdf.head(len(pdf) // wl.chunks)
        _write_chunks(warm, work / "warm_src", 1)
        times.append(time.perf_counter() - t0)
    schema = spark.createDataFrame(pdf.head(1)).schema
    return pdf, warm, work / "stream_src", schema, statistics.median(times)


class Drain:
    """One closed-loop ``availableNow`` drain of a file source."""

    def __init__(self, spark, wl, src: Path, schema, work: Path, tag: str) -> None:
        from repro.core.streaming import run_query_streaming

        stream = (spark.readStream.schema(schema)
                  .option("maxFilesPerTrigger", 1).json(str(src)))
        self.spark, self.wl, self.tag = spark, wl, tag
        self.out = run_query_streaming(stream, wl.query)
        self.ckpt = work / f"ckpt_{tag}"
        shutil.rmtree(self.ckpt, ignore_errors=True)

    def run(self, outcome: Outcome) -> float | None:
        sink = f"sink_{self.tag}"
        t0 = time.perf_counter()
        sq = (self.out.writeStream.format("memory").queryName(sink)
              .outputMode("update")
              .option("checkpointLocation", str(self.ckpt))
              .trigger(availableNow=True).start())
        self.run_id = str(sq.runId)
        try:
            finished = sq.awaitTermination(DRAIN_TIMEOUT_S)
            wall = time.perf_counter() - t0
            if not finished or sq.exception() is not None:
                raise RuntimeError(f"drain did not finish: {sq.exception()}")
        except Exception as exc:  # a failed drain fails all its rows
            print(f"drain failed: {exc!r}", file=sys.stderr)
            sq.stop()
            outcome.raised()
            return None
        self.progress = [p for p in sq.recentProgress if p.numInputRows > 0]
        rows = self.spark.sql(f"SELECT * FROM {sink}").toPandas()
        keys = [*self.wl.query.partition_by, "wid"]
        # update mode appends one row per key per micro-batch; keep the last
        outcome.score(rows.drop_duplicates(keys, keep="last"))
        # the stream has no peak_state_bytes column; the state store's size
        # estimate stands in and, like the batch count, must repeat exactly
        outcome.checks[-1].peak_state_bytes = max(
            s.memoryUsedBytes for p in self.progress for s in p.stateOperators)
        return wall


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def measure(spark, wl, seed: int, seconds: float, trace: bool, events: int,
            work: Path, mem: MemorySampler, session_s: float) -> tuple[dict, Outcome, dict]:
    from reference import build_reference

    if wl.streaming:
        pdf, warm, src, schema, data_s = setup_stream(spark, wl, seed, events, work)
        warm_outcome = Outcome(build_reference(warm, wl.query))  # not timed
    else:
        pdf, df, data_s = setup_batch(spark, wl, seed, events)
    ref = build_reference(pdf, wl.query)  # not timed
    outcome = Outcome(ref)
    cals = [calibration_s()]

    t0 = time.perf_counter()
    if wl.streaming:
        # the first streaming query of a JVM pays the start-up of the
        # stateful operator, so a one-chunk drain warms up
        Drain(spark, wl, work / "warm_src", schema, work, "warmup").run(warm_outcome)
        outcome.attempted, outcome.failed = warm_outcome.attempted, warm_outcome.failed
    else:
        for _ in range(BATCH_WARMUPS):
            run_batch_once(df, wl, outcome)
    warm_s = time.perf_counter() - t0
    cals.append(calibration_s())

    stamp = {"setup": {"session_s": session_s, "data_s": data_s, "warmup_s": warm_s},
             "substreams": len(ref.rows), "oracle_checked": ref.oracle_checked}
    if trace:
        metrics = measure_layers(spark, wl, pdf, ref, outcome, work,
                                 src if wl.streaming else df,
                                 schema if wl.streaming else None)
        stamp["samples"] = 2
        return metrics, outcome, stamp

    walls, batch_ms = [], []
    deadline = time.perf_counter() + seconds
    # start another query only if one as long as the median so far ends in
    # time, so that a run stops near ``seconds`` and not a whole query past it
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        if wl.streaming:
            drain = Drain(spark, wl, src, schema, work, f"t{len(walls)}")
            wall = drain.run(outcome)
            if wall is not None:
                batch_ms += [p.durationMs["triggerExecution"] for p in drain.progress]
        else:
            wall = run_batch_once(df, wl, outcome)
            if wall is not None:
                batch_ms.append(wall * 1e3)
        if wall is not None:
            walls.append(wall)
        elif not walls and time.perf_counter() >= deadline:
            raise RuntimeError("every query of the run failed")
        cals.append(calibration_s())
    scale = CAL_REF_S / statistics.median(cals)
    wall_s = statistics.median(walls) * scale
    metrics = {
        "wall_s": wall_s,
        "eps": len(pdf) / wall_s,
        "setup_s": (session_s + data_s + warm_s) * scale,
        "peak_state_bytes": outcome.checks[-1].peak_state_bytes,
        "peak_rss_mb": mem.stop() / 2**20,
        "batch_p50_ms": statistics.median(batch_ms) * scale,
    }
    stamp["walls_s"] = walls
    stamp["batches_ms"] = batch_ms
    stamp["calibration_s"] = cals
    stamp["speed_scale"] = scale
    return metrics, outcome, stamp


def _quantile(values: list[float], q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def measure_layers(spark, wl, pdf, ref, outcome: Outcome, work: Path,
                   source, schema) -> dict:
    """Run the query once untraced and once traced; derive the per-layer
    metrics from the timers, the event log and the traced result."""
    from layers import Timers, traced
    from reference import serial_seconds
    from repro.core.spark_runner import local_filter_expr
    from repro.core.windows import with_window_ids

    q = wl.query
    cq = q.compile()
    sc = spark.sparkContext
    timers = Timers(sc)
    m: dict[str, float] = {}

    # prefix counts, through the runners' own prefix functions
    df = spark.createDataFrame(pdf) if wl.streaming else source
    flt = local_filter_expr(cq)
    filtered = df.filter(flt) if flt is not None else df
    keep = list(dict.fromkeys([*q.partition_by, q.time_col, q.type_col, *cq.attr_cols]))
    m["prefix.rows_in"] = len(pdf)
    m["prefix.rows_filtered"] = filtered.count()
    m["prefix.rows_exploded"] = with_window_ids(
        filtered.select(*keep), q.window, q.time_col).count()
    m["prefix.amplification"] = m["prefix.rows_exploded"] / max(1, m["prefix.rows_filtered"])

    if wl.streaming:
        untraced = Drain(spark, wl, source, schema, work, "untraced").run(outcome)
        with traced(timers):
            drain = Drain(spark, wl, source, schema, work, "traced")
        wall = drain.run(outcome)
        group = drain.run_id  # a stream runs its jobs in a group named by its run id
    else:
        from repro.core.spark_runner import run_query

        untraced = run_batch_once(source, wl, outcome)
        sc.setJobGroup(TRACE_GROUP, "traced query")
        t0 = time.perf_counter()
        with traced(timers):
            planned = run_query(source, q, exact=False)
        result = planned.toPandas()
        wall = time.perf_counter() - t0
        sc.setLocalProperty("spark.jobGroup.id", None)
        outcome.score(result)
        group = TRACE_GROUP
    if untraced is None or wall is None:
        raise RuntimeError("the untraced or traced query failed")
    m["trace.overhead_s"] = wall - untraced
    t = timers.values()
    # layer counts must match the reference exactly; a mismatch fails a result
    want = [(m["prefix.rows_filtered"], ref.rows_filtered),
            (m["prefix.rows_exploded"], ref.rows_exploded)]
    if not wl.streaming:  # a stream folds each key once per micro-batch it occurs in
        want += [(t["udf.calls"], len(ref.rows)), (t["kernel.calls"], len(ref.rows)),
                 (t["decode.rows"], ref.rows_exploded)]
    if any(got != exp for got, exp in want):
        print(f"layer counts differ from the reference: {want}", file=sys.stderr)
        outcome.raised()

    if wl.streaming:
        prog = drain.progress
        ops = [p.stateOperators[0] for p in prog]
        m.update({
            "streaming.batches": len(prog),
            "streaming.fold_calls": t["udf.calls"],
            "streaming.fold_s": t["udf.s"],
            "streaming.state_rows_last": ops[-1].numRowsTotal,
            "streaming.state_bytes_last": ops[-1].memoryUsedBytes,
            "streaming.state_commit_ms": sum(o.commitTimeMs for o in ops),
            "streaming.tasks_per_batch": ops[-1].numShufflePartitions,
        })
        kernel_ms = []
    else:
        m.update(dict.fromkeys(
            ("streaming.batches", "streaming.fold_calls", "streaming.fold_s",
             "streaming.state_rows_last", "streaming.state_bytes_last",
             "streaming.state_commit_ms", "streaming.tasks_per_batch"), 0))
        kernel_ms = [s * 1e3 for s in result["kernel_seconds"]]
        m["collect.rows"] = len(result)

    chk = outcome.checks[-1]
    m.update({k: t[k] for k in ("udf.calls", "udf.s", "decode.calls", "decode.rows",
                                 "decode.s", "kernel.calls", "kernel.s")})
    m["kernel.events"] = chk.events
    m["kernel.dnf"] = 0 if wl.streaming else int(result["dnf"].sum())
    n = len(kernel_ms)
    m["kernel.substream_p50_ms"] = statistics.median(kernel_ms) if n else 0.0
    # the highest percentile with at least ten samples beyond it, capped at p99
    m["kernel.substream_p99_ms"] = _quantile(kernel_ms, min(0.99, 1 - 10 / n)) if n >= 20 else 0.0
    m["encode.s"] = t["udf.s"] - t["decode.s"] - t["kernel.s"] if not wl.streaming else 0.0
    m.setdefault("collect.rows", chk.expected)
    m["out.null"], m["out.overflow"], m["out.nan_vs_ref"] = chk.null, chk.overflow, chk.nan_vs_ref
    m["serial.s"] = serial_seconds(ref, q, exact=False)
    m["spark_factor"] = wall / m["serial.s"]
    # the event log is complete once the context stops: finish_layers reads it
    m["_wall"], m["_log_dir"], m["_group"] = wall, work / "eventlog", group
    return m


def finish_layers(m: dict) -> dict:
    """Merge the event-log metrics, after the session stopped."""
    from layers import read_event_log, spark_layers

    s = spark_layers(read_event_log(m.pop("_log_dir")), m.pop("_group"))
    wall = m.pop("_wall")
    m.update({k: v for k, v in s.items() if k != "jobs_span_s"})
    m["pyworker.overhead_s"] = s["pyworker.run_s"] - m["udf.s"]
    m["driver.s"] = wall - s["jobs_span_s"]
    m["trace.coverage"] = (m["driver.s"] + s["prefix.s"] + s["kernel_stage.s"]) / wall
    return m


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def environment_stamp(wl, seed: int, seconds: float, trace: bool, events: int,
                      spark_conf: dict) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode())
        src.update(f.read_bytes())
    return {
        "workload": wl.name, "why": wl.why, "seed": seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": seconds, "trace": int(trace),
        "events": events, "git_sha": sha, "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "pyspark": pyspark.__version__, "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
        "session": spark_conf,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        events: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment stamp)."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    events = events or wl.events
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    mem = MemorySampler()
    mem.start()
    steal0 = cpu_steal_s()
    t0 = time.perf_counter()
    spark = start_session(work, trace=trace)
    session_s = time.perf_counter() - t0
    try:
        metrics, outcome, stamp = measure(
            spark, wl, seed, seconds, trace, events, work, mem, session_s)
        conf = {k: spark.conf.get(k) for k in (
            "spark.master", "spark.sql.shuffle.partitions",
            "spark.sql.execution.arrow.pyspark.enabled",
            "spark.sql.autoBroadcastJoinThreshold", "spark.sql.adaptive.enabled")}
    finally:
        stop_session(spark)
        mem.stop()
    if trace:
        stamp["traced_wall_s"] = metrics["_wall"]
        metrics = finish_layers(metrics)
    failed = outcome.failed + outcome.repeat_failures()
    if trace:
        metrics["error_rate"] = failed / outcome.attempted
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    stamp["cpu_steal_s"] = cpu_steal_s() - steal0
    stamp.update(environment_stamp(wl, seed, seconds, trace, events, conf))
    shutil.rmtree(work, ignore_errors=True)
    line = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return line, stamp


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--events", type=int, help="input size (default: the workload's own)")
    args = p.parse_args(argv)
    line, stamp = run(args.workload, args.seed, args.seconds, bool(args.trace),
                      events=args.events)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(line))
    return 0


def prepare_paths() -> None:
    """Import the program from this checkout, in this process and in the
    Python workers, which also import the timers from the bench directory."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_util.py").is_file():
        sys.exit(f"{ROOT} is not a checkout of the repository (src/repro, jobs/ missing)")
    for p in (str(ROOT / "src"), str(ROOT), str(BENCH_DIR)):
        if p not in sys.path:
            sys.path.insert(0, p)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR), *filter(None, [os.environ.get("PYTHONPATH")])])


if __name__ == "__main__":
    prepare_paths()
    sys.exit(main())
