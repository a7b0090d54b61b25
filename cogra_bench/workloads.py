"""The benchmark's workloads: a seeded input, a query and an entry point.

Each workload is chosen to stress a different layer of the pipeline (see
``why``). Sizes are fixed so that one run fits its time budget on a 4-core
machine; the seed only changes the random draw, never the size.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.core.aggregates import Avg, Count
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query, WindowSpec
from repro.harness.experiments import Q2_PATTERN
from repro.synth_data import stock_stream_pdf, transport_stream_pdf


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: Query
    make_input: Callable[[int, int], pd.DataFrame]  # (events, seed) -> pdf
    events: int  # input size of a full run
    tiny_events: int  # input size of the smoke test
    streaming: bool = False
    chunks: int = 1  # streaming: micro-batches in one drain


def _stock_query(window: WindowSpec, preds: tuple = ()) -> Query:
    return Query(
        pattern="SEQ(D+, U)",
        semantics=Semantics.ANY,
        aggregates=(Count(), Avg("U", "price")),
        adjacent_predicates=preds,
        partition_by=("sector", "company"),
        window=window,
    )


def _stock(n: int, seed: int) -> pd.DataFrame:
    return stock_stream_pdf(n=n, seed=seed)


def _transport(n: int, seed: int) -> pd.DataFrame:
    return transport_stream_pdf(n=n, seed=seed)


ANY_SLIDE_QUERY = _stock_query(WindowSpec(size=600, slide=30))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="any-slide",
            why="window 600/30 explodes 800 events 13x into ~505 substreams; per-group "
            "Arrow/pandas framing in the Python worker is ~2/3 of wall time, the kernel ~3%",
            query=ANY_SLIDE_QUERY,
            make_input=_stock,
            events=800,
            tiny_events=120,
        ),
        Workload(
            name="next-long",
            why="NEXT pattern-grained q2 with no window: few large substreams, "
            "so decode and the per-event kernel dominate and there is no explode",
            query=Query(
                pattern=Q2_PATTERN,
                semantics=Semantics.NEXT,
                aggregates=(Count(),),
                partition_by=("passenger",),
            ),
            make_input=_transport,
            events=200_000,
            tiny_events=2_000,
        ),
        Workload(
            name="mixed-pred",
            why="mixed-grained ANY with D.price < NEXT(D).price + 0.5: the "
            "Python predicate loop over stored events dominates the wall time",
            query=_stock_query(
                WindowSpec(size=10_000, slide=5_000),
                (AdjacentPredicate("D", "price", "<", "D", "price", offset=0.5),),
            ),
            make_input=_stock,
            events=6_000,
            tiny_events=400,
        ),
        Workload(
            name="any-stream",
            why="the any-slide query through run_query_streaming in 2 time-ordered chunks: "
            "the only workload on the stateful layer, where per-task Python worker "
            "start-up dominates",
            query=ANY_SLIDE_QUERY,
            make_input=_stock,
            events=400,
            tiny_events=60,
            streaming=True,
            chunks=2,
        ),
    )
}
