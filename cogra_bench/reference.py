"""In-process exact reference for a workload, and the row-by-row check of
a Spark result against it.

The reference does not go through Spark: it filters, assigns window ids
with ``WindowSpec.wids_for``, groups with pandas and folds each substream
into an exact (bignum) aggregator from ``make_aggregator``. A fixed sample
of small substreams is also checked against the brute-force oracle.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import run_approach
from repro.core.events import events_from_pandas
from repro.core.executor import make_aggregator
from repro.core.query import Query
from repro.harness.metrics import Budget

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
ORACLE_SAMPLE = 5  # substreams checked by brute force
ORACLE_MAX_EVENTS = 14  # brute force enumerates up to 2^n trends
REL_TOL = 1e-6  # float64 kernel vs exact bignum arithmetic


def _to_float(v) -> float | None:
    if v is None:
        return None
    try:
        return float(v)
    except OverflowError:  # the runner saturates the same way
        return math.inf if v > 0 else -math.inf


@dataclass
class Reference:
    keys: list[str]  # partition columns + "wid"
    specs: list[str]  # aggregate column names
    rows: dict[tuple, dict]  # key -> {spec: float | None, events, peak_state_bytes}
    substreams: list[tuple[tuple, pd.DataFrame]] = field(repr=False)
    rows_filtered: int = 0
    rows_exploded: int = 0
    oracle_checked: int = 0
    oracle_mismatches: int = 0


def build_reference(pdf: pd.DataFrame, query: Query) -> Reference:
    cq = query.compile()
    q = query
    mask = np.ones(len(pdf), dtype=bool)
    for lp in q.local_predicates:
        ok = _OPS[lp.op](pdf[lp.attr], lp.value).to_numpy()
        if lp.etype is not None:
            ok |= (pdf[q.type_col] != lp.etype).to_numpy()
        mask &= ok
    flt = pdf[mask]
    keep = list(dict.fromkeys([*q.partition_by, q.time_col, q.type_col, *cq.attr_cols]))
    flt = flt[keep]
    if q.window is None:
        exploded = flt.assign(wid=0)
    else:
        wids = [q.window.wids_for(t) for t in flt[q.time_col].to_numpy()]
        exploded = flt.loc[flt.index.repeat([len(r) for r in wids])].assign(
            wid=np.fromiter((w for r in wids for w in r), dtype=np.int64)
        )
    keys = [*q.partition_by, "wid"]
    specs = [s.name for s in cq.specs]
    ref = Reference(keys=keys, specs=specs, rows={}, substreams=[],
                    rows_filtered=len(flt), rows_exploded=len(exploded))
    attr_cols = list(cq.attr_cols)
    for key, sub in exploded.groupby(keys, sort=True):
        key = tuple(int(k) for k in key)
        sub = sub.sort_values(q.time_col, kind="stable")
        ref.substreams.append((key, sub))
        agg = make_aggregator(cq, exact=True)
        attrs = sub[attr_cols].to_dict("records") if attr_cols else [{}] * len(sub)
        for etype, a in zip(sub[q.type_col].to_numpy(), attrs):
            agg.update(etype, a)
        res = agg.result()
        row = {s: _to_float(res[s]) for s in specs}
        row["events"] = agg.events_processed
        row["peak_state_bytes"] = agg.meter.peak
        ref.rows[key] = row
    _check_oracle(ref, query)
    return ref


def _check_oracle(ref: Reference, query: Query) -> None:
    """Brute-force the first few small substreams; a mismatch means the
    reference itself is wrong, and the check fails those rows."""
    cq = query.compile()
    for key, sub in ref.substreams:
        if ref.oracle_checked == ORACLE_SAMPLE:
            return
        if len(sub) > ORACLE_MAX_EVENTS:
            continue
        events = events_from_pandas(sub, time_col=query.time_col,
                                    type_col=query.type_col, attr_cols=cq.attr_cols)
        want = aggregate_bruteforce(events, cq)
        ref.oracle_checked += 1
        if any(not _same(_to_float(want[s]), ref.rows[key][s]) for s in ref.specs):
            ref.oracle_mismatches += 1


def _same(got, want) -> bool:
    """Null equals null; infinities must match in sign; finite values
    agree within REL_TOL."""
    got_null = got is None or (isinstance(got, float) and math.isnan(got))
    if want is None:
        return got_null
    if got_null:
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


@dataclass
class Check:
    expected: int  # reference rows
    failed: int  # missing + extra + DNF + wrong rows
    null: int = 0  # null aggregate values in the result
    overflow: int = 0  # +-inf aggregate values in the result
    nan_vs_ref: int = 0  # NaN where the reference is finite
    events: int = 0  # sum of the result's events column
    peak_state_bytes: int = 0  # sum of the result's peak_state_bytes column

    def counts(self) -> tuple:
        """The counts that must repeat exactly across runs of one seed."""
        return (self.failed, self.null, self.overflow, self.nan_vs_ref,
                self.events, self.peak_state_bytes)


def check_result(result: pd.DataFrame, ref: Reference) -> Check:
    """Score a collected result row by row against the reference."""
    chk = Check(expected=len(ref.rows), failed=ref.oracle_mismatches)
    seen: set[tuple] = set()
    key_vals = result[ref.keys].to_numpy(dtype=np.int64)
    for key_arr, row in zip(key_vals, result.to_dict("records")):
        key = tuple(int(k) for k in key_arr)
        for s in ref.specs:
            v = row[s]
            if v is None or math.isnan(v):
                chk.null += 1
            elif math.isinf(v):
                chk.overflow += 1
        chk.events += int(row["events"])
        chk.peak_state_bytes += int(row.get("peak_state_bytes", 0))
        want = ref.rows.get(key)
        if want is None or key in seen:
            chk.failed += 1  # extra or duplicate row
            continue
        seen.add(key)
        bad = bool(row.get("dnf", False)) or int(row["events"]) != want["events"]
        if "peak_state_bytes" in row:
            bad |= int(row["peak_state_bytes"]) != want["peak_state_bytes"]
        for s in ref.specs:
            v, w = row[s], want[s]
            if v is not None and math.isnan(v) and w is not None and math.isfinite(w):
                chk.nan_vs_ref += 1
            bad |= not _same(v, w)
        chk.failed += bad
    chk.failed += len(ref.rows) - len(seen)  # missing rows
    return chk


def serial_seconds(ref: Reference, query: Query, *, exact: bool) -> float:
    """Single-threaded baseline: the same substreams through the batch
    runner's decode and kernel calls, in this process, without Spark."""
    cq = query.compile()
    t0 = time.perf_counter()
    for _, sub in ref.substreams:
        events = events_from_pandas(sub, time_col=query.time_col,
                                    type_col=query.type_col, attr_cols=cq.attr_cols)
        run_approach("cogra", events, cq, exact=exact, budget=Budget())
    return time.perf_counter() - t0
