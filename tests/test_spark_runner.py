"""End-to-end batch Spark pipeline (filter -> window -> partition ->
kernel), cross-checked against local kernels and between approaches."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.baselines.registry import run_approach
from repro.core.aggregates import Avg, Count, CountType, Max, Min, Sum
from repro.core.events import events_from_pandas
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query, WindowSpec
from repro.core.spark_runner import run_query


@pytest.fixture(scope="module")
def stream_pdf():
    g = np.random.default_rng(5)
    n = 240
    return pd.DataFrame(
        {
            "time": np.arange(1, n + 1),
            "grp": g.integers(0, 3, n),
            "etype": g.choice(list("ABC"), n),
            "v": g.integers(0, 10, n).astype("float64"),
        }
    )


AGGS = (Count(), CountType("A"), Min("A", "v"), Max("B", "v"), Sum("B", "v"),
        Avg("A", "v"))


def local_expected(pdf: pd.DataFrame, query: Query) -> pd.DataFrame:
    """Reference: the same kernels run directly on pandas substreams."""
    cq = query.compile()
    rows = []
    for lp in query.local_predicates:
        pdf = pdf[[lp.holds(r[query.type_col], r) for r in pdf.to_dict("records")]]
    w = query.window
    pdf = pdf.copy()
    pdf["wid"] = [
        list(w.wids_for(t)) if w else [0] for t in pdf[query.time_col]
    ]
    pdf = pdf.explode("wid")
    for key, g in pdf.groupby([*query.partition_by, "wid"]):
        ev = events_from_pandas(g, attr_cols=cq.attr_cols)
        res = run_approach("cogra", ev, cq)
        row = dict(zip([*query.partition_by, "wid"], key))
        row.update(
            {k: (None if v is None else float(v)) for k, v in res.aggregates.items()}
        )
        rows.append(row)
    return pd.DataFrame(rows)


def _cmp(spark_out: pd.DataFrame, expected: pd.DataFrame, keys: list[str]):
    cols = list(expected.columns)
    got = spark_out[cols].sort_values(keys).reset_index(drop=True)
    exp = expected.sort_values(keys).reset_index(drop=True)
    got["wid"] = got.wid.astype("int64")
    exp["wid"] = exp.wid.astype("int64")
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("semantics", list(Semantics))
def test_spark_matches_local_kernels(spark, stream_pdf, semantics):
    q = Query(
        pattern="(SEQ(A+, B))+",
        semantics=semantics,
        aggregates=AGGS,
        partition_by=("grp",),
        window=WindowSpec(size=40, slide=20),
    )
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    _cmp(out, local_expected(stream_pdf, q), ["grp", "wid"])


def test_spark_with_adjacent_and_local_predicates(spark, stream_pdf):
    q = Query(
        pattern="SEQ(A+, B)",
        semantics=Semantics.ANY,
        aggregates=AGGS,
        adjacent_predicates=(AdjacentPredicate("A", "v", "<", "A", "v"),),
        local_predicates=(LocalPredicate("v", ">", 1.0, etype="A"),),
        partition_by=("grp",),
        window=WindowSpec(size=60, slide=30),
    )
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    _cmp(out, local_expected(stream_pdf, q), ["grp", "wid"])


def test_approaches_agree_through_spark(spark, stream_pdf):
    q = Query(
        pattern="SEQ(A+, B)",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("grp",),
        window=WindowSpec(size=30, slide=15),
    )
    df = spark.createDataFrame(stream_pdf)
    base = None
    for ap in ("cogra", "greta", "aseq", "sase", "flink"):
        out = (
            run_query(df, q, approach=ap)
            .toPandas()
            .sort_values(["grp", "wid"])
            .reset_index(drop=True)
        )
        assert not out.dnf.any()
        cur = out[["grp", "wid", "count_star"]]
        if base is None:
            base = cur
        else:
            pd.testing.assert_frame_equal(base, cur, check_dtype=False)


def test_dnf_rows_surface_in_output(spark, stream_pdf):
    q = Query(
        pattern="A+",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("grp",),
    )
    out = run_query(
        spark.createDataFrame(stream_pdf), q, approach="sase", budget_units=500
    ).toPandas()
    assert out.dnf.all()
    assert out.count_star.isna().all()


def test_metrics_columns_present(spark, stream_pdf):
    q = Query(pattern="A+", semantics=Semantics.NEXT, partition_by=("grp",))
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    for c in ("events", "peak_state_bytes", "kernel_seconds", "dnf",
              "trends_constructed"):
        assert c in out.columns
    assert (out.events > 0).all()
    assert (out.peak_state_bytes > 0).all()


def test_empty_group_absent_not_crashing(spark):
    pdf = pd.DataFrame(
        {"time": [1, 2], "grp": [0, 0], "etype": ["C", "C"], "v": [0.0, 0.0]}
    )
    q = Query(pattern="A+", semantics=Semantics.ANY, partition_by=("grp",))
    out = run_query(spark.createDataFrame(pdf), q).toPandas()
    # Group exists (rows arrive at the kernel) but no relevant events.
    assert out.count_star.tolist() == [0.0]


def _sorted_rows(out: pd.DataFrame) -> pd.DataFrame:
    """Every output column but the timing, in key order."""
    return (
        out.drop(columns="kernel_seconds")
        .sort_values(["grp", "wid"])
        .reset_index(drop=True)
    )


WINDOWED = Query(
    pattern="(SEQ(A+, B))+",
    semantics=Semantics.ANY,
    aggregates=AGGS,
    partition_by=("grp",),
    window=WindowSpec(size=40, slide=20),
)


def test_output_invariant_under_input_partitioning(spark, stream_pdf):
    one = spark.createDataFrame(stream_pdf).coalesce(1)
    shuffled = spark.createDataFrame(
        stream_pdf.sample(frac=1.0, random_state=7)
    ).repartition(8)
    assert one.rdd.getNumPartitions() == 1
    assert shuffled.rdd.getNumPartitions() == 8
    pd.testing.assert_frame_equal(
        _sorted_rows(run_query(one, WINDOWED).toPandas()),
        _sorted_rows(run_query(shuffled, WINDOWED).toPandas()),
        check_exact=True,
    )


def test_output_invariant_under_shuffle_partitions(spark, stream_pdf):
    df = spark.createDataFrame(stream_pdf)
    saved = spark.conf.get("spark.sql.shuffle.partitions")
    outs = []
    try:
        for n in ("4", "64"):
            spark.conf.set("spark.sql.shuffle.partitions", n)
            outs.append(_sorted_rows(run_query(df, WINDOWED).toPandas()))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", saved)
    pd.testing.assert_frame_equal(*outs, check_exact=True)


def test_kernel_stage_runs_one_task_per_core(spark, stream_pdf):
    """The one exchange hashes on (group, wid) into defaultParallelism
    partitions, and AQE does not coalesce it even though it is small."""
    sc = spark.sparkContext
    n = sc.defaultParallelism
    out = run_query(spark.createDataFrame(stream_pdf), WINDOWED)
    group = "kernel-stage-tasks"
    sc.setJobGroup(group, "run_query on a small input")
    try:
        out.toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)

    adaptive = out._jdf.queryExecution().executedPlan()
    assert "isFinalPlan=true" in adaptive.toString()
    plan = adaptive.executedPlan().toString()  # the final plan only
    assert "AQEShuffleRead" not in plan, plan
    exchanges = re.findall(r"Exchange (\w+)\(([^)]*)\)", plan)
    assert len(exchanges) == 1, plan
    kind, args = exchanges[0]
    assert kind == "hashpartitioning"
    assert re.fullmatch(rf"grp#\d+L?, wid#\d+L?, {n}", args), plan

    tracker = sc.statusTracker()
    stage_ids = [
        sid
        for jid in tracker.getJobIdsForGroup(group)
        for sid in tracker.getJobInfo(jid).stageIds
    ]
    kernel_stage = tracker.getStageInfo(max(stage_ids))
    assert kernel_stage.numTasks == n
