"""Structured Streaming deployment of Cogra (calibration-hint mapping).

Cogra's coarse-grained incremental aggregation maps directly onto
Structured Streaming's stateful aggregation operators: the keyed state per
(grouping attributes, window id) is one Cogra aggregator — Theta(l) values
at the type granularity, O(1) at the pattern granularity — and each
micro-batch folds its events into that state via
``applyInPandasWithState``. Aggregates are emitted in *update* mode after
every micro-batch, mirroring the paper's per-slide outputs.

Ordering: Definition-7 adjacency is order-sensitive. Events are sorted by
timestamp inside each micro-batch, and micro-batches are assumed to arrive
in time order per key (the paper makes the same in-order assumption via
its time-driven scheduler, Section 8 — out-of-order handling a la
watermarks is orthogonal to the contribution).
"""
from __future__ import annotations

import pickle
from typing import Any, Iterator, Tuple

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core.executor import make_aggregator
from repro.core.query import Query
from repro.core.spark_runner import local_filter_expr, to_double
from repro.core.windows import with_window_ids


def streaming_result_schema(df: DataFrame, query: Query) -> T.StructType:
    cq = query.compile()
    fields = [df.schema[c] for c in query.partition_by]
    fields.append(T.StructField("wid", T.LongType()))
    fields.extend(T.StructField(s.name, T.DoubleType()) for s in cq.specs)
    fields.append(T.StructField("events", T.LongType()))
    return T.StructType(fields)


_STATE_SCHEMA = T.StructType([T.StructField("blob", T.BinaryType())])


def run_query_streaming(stream_df: DataFrame, query: Query) -> DataFrame:
    """Evaluate an event trend aggregation query over a *streaming*
    DataFrame; returns the update-mode result stream (one row per key per
    micro-batch with the aggregates so far).

    The caller starts the returned stream with ``writeStream`` (see
    ``jobs/streaming_demo.py`` and ``tests/test_streaming.py``).
    """
    cq = query.compile()
    flt = local_filter_expr(cq)
    if flt is not None:
        stream_df = stream_df.filter(flt)
    keep = [*query.partition_by, query.time_col, query.type_col, *cq.attr_cols]
    stream_df = stream_df.select(*dict.fromkeys(keep))
    stream_df = with_window_ids(stream_df, query.window, query.time_col)

    out_schema = streaming_result_schema(stream_df, query)
    key_cols = [*query.partition_by, "wid"]
    time_col, type_col, attr_cols = query.time_col, query.type_col, cq.attr_cols
    spec_names = [s.name for s in cq.specs]

    def fold(
        key: Tuple[Any, ...],
        pdfs: Iterator[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            agg = pickle.loads(state.get[0])
        else:
            agg = make_aggregator(cq, exact=True)
        for pdf in pdfs:
            pdf = pdf.sort_values(time_col, kind="stable")
            attr_iter = (
                pdf[list(attr_cols)].to_dict("records")
                if attr_cols
                else ({} for _ in range(len(pdf)))
            )
            for etype, attrs in zip(pdf[type_col].to_numpy(), attr_iter):
                agg.update(etype, attrs)
        state.update((pickle.dumps(agg),))
        row = dict(zip(key_cols, key))
        res = agg.result()
        for name in spec_names:
            row[name] = to_double(res[name])
        row["events"] = agg.events_processed
        yield pd.DataFrame([{f.name: row[f.name] for f in out_schema.fields}])

    return stream_df.groupBy(*key_cols).applyInPandasWithState(
        fold,
        outputStructType=out_schema,
        stateStructType=_STATE_SCHEMA,
        outputMode="update",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
