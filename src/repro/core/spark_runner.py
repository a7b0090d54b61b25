"""Batch Spark runner: the distributed Cogra executor (paper Sections 7-8).

Pipeline (all relational stages in Catalyst, per the paper's executor):

1. **Filter** — local predicates prune the stream (Section 7).
2. **Window** — each event is exploded into its covering window ids.
3. **Partition** — hash-partition on (grouping/equivalence attrs + wid)
   into ``defaultParallelism`` partitions, then groupBy the same keys: the
   paper's "non-overlapping sub-streams … processed in parallel
   independently". The count is explicit because AQE sizes shuffle
   partitions by bytes and would coalesce this small shuffle into one
   task, while the stage's cost is Python CPU per group; an explicit
   count is never coalesced, and the grouped UDF reuses that exchange, so
   the kernel stage runs one task per core.
4. **Kernel** — one ``applyInPandas`` call per substream runs the
   granularity-selected Cogra aggregator (or a baseline) as a
   DataFrame -> DataFrame physical operator, emitting the aggregates plus
   per-substream metrics (events, peak state bytes, kernel seconds, DNF).

The kernel is sequential per substream by design: Definition 7 adjacency
is order-sensitive, so parallelism comes from partitioning, exactly as in
the paper (Section 8, "Parallel Processing").
"""
from __future__ import annotations

import math

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.baselines.registry import run_approach
from repro.core.events import events_from_pandas
from repro.core.query import CompiledQuery, Query
from repro.core.windows import with_window_ids
from repro.harness.metrics import Budget

_OP_TO_SQL = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "=", "!=": "<>"}

METRIC_FIELDS = [
    T.StructField("events", T.LongType()),
    T.StructField("peak_state_bytes", T.LongType()),
    T.StructField("kernel_seconds", T.DoubleType()),
    T.StructField("dnf", T.BooleanType()),
    T.StructField("trends_constructed", T.LongType()),
]


def local_filter_expr(cq: CompiledQuery) -> Column | None:
    """Catalyst predicate for the query's local predicates: an event of a
    targeted type must satisfy the comparison; other types pass."""
    q = cq.query
    expr: Column | None = None
    for lp in q.local_predicates:
        c = F.expr(f"`{lp.attr}` {_OP_TO_SQL[lp.op]} {lp.value!r}")
        if lp.etype is not None:
            c = (F.col(q.type_col) != F.lit(lp.etype)) | c
        expr = c if expr is None else (expr & c)
    return expr


def to_double(v) -> float | None:
    """An aggregate as a DataFrame double. Exact ANY counts can exceed the
    float64 range (2^n trends); they saturate to ``inf`` like the paper's
    fixed-width arithmetic would."""
    if v is None:
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf


def result_schema(df: DataFrame, cq: CompiledQuery) -> T.StructType:
    """Output schema: partition keys + wid + one double per aggregate +
    kernel metrics."""
    q = cq.query
    fields = [df.schema[c] for c in q.partition_by]
    fields.append(T.StructField("wid", T.LongType()))
    fields.extend(T.StructField(s.name, T.DoubleType()) for s in cq.specs)
    fields.extend(METRIC_FIELDS)
    return T.StructType(fields)


def run_query(
    df: DataFrame,
    query: Query,
    *,
    approach: str = "cogra",
    exact: bool = True,
    budget_units: int = 5_000_000,
    budget_seconds: float = 30.0,
    flatten_cap: int | None = None,
) -> DataFrame:
    """Evaluate an event trend aggregation query over a batch DataFrame.

    Returns one row per (partition key values, wid) with the aggregate
    columns named after each :class:`~repro.core.aggregates.AggSpec` plus
    kernel metrics. ``approach`` selects Cogra or a Table-9 baseline;
    unsupported combinations raise (checked by the registry).
    """
    cq = query.compile()
    q = query
    flt = local_filter_expr(cq)
    if flt is not None:
        df = df.filter(flt)
    keep = [*q.partition_by, q.time_col, q.type_col, *cq.attr_cols]
    df = df.select(*dict.fromkeys(keep))  # dedup, keep order
    df = with_window_ids(df, q.window, q.time_col)

    schema = result_schema(df, cq)
    key_cols = [*q.partition_by, "wid"]
    out_cols = [f.name for f in schema.fields]
    time_col, type_col, attr_cols = q.time_col, q.type_col, cq.attr_cols

    def kernel(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        events = events_from_pandas(
            pdf, time_col=time_col, type_col=type_col, attr_cols=attr_cols
        )
        res = run_approach(
            approach,
            events,
            cq,
            exact=exact,
            budget=Budget(max_units=budget_units, max_seconds=budget_seconds),
            flatten_cap=flatten_cap,
        )
        row = dict(zip(key_cols, key))
        for s in cq.specs:
            row[s.name] = to_double(res.aggregates[s.name])
        row["events"] = res.events_processed
        row["peak_state_bytes"] = res.peak_state_bytes
        row["kernel_seconds"] = res.kernel_seconds
        row["dnf"] = res.dnf
        row["trends_constructed"] = res.trends_constructed
        return pd.DataFrame([{c: row[c] for c in out_cols}])

    n = df.sparkSession.sparkContext.defaultParallelism
    return (
        df.repartition(n, *key_cols)
        .groupBy(*key_cols)
        .applyInPandas(kernel, schema=schema)
    )
