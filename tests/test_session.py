"""The shared session builder forks Python workers from the preloading
worker daemon."""
import gc
import importlib
import sys

import pandas as pd

from repro.session import WORKER_DAEMON


def test_worker_daemon_imports():
    mod = importlib.import_module(WORKER_DAEMON)
    assert callable(mod.daemon.manager)


def test_session_selects_worker_daemon(spark):
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.python.daemon.module") == WORKER_DAEMON


def test_pandas_udf_runs_under_worker_daemon(spark):
    def probe(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "id": pdf["id"],
                "main": sys.modules["__main__"].__spec__.name,
                "frozen": gc.get_freeze_count(),
            }
        )

    out = (
        spark.range(8)
        .groupBy("id")
        .applyInPandas(probe, "id long, main string, frozen long")
        .toPandas()
    )
    assert sorted(out["id"]) == list(range(8))
    assert set(out["main"]) == {WORKER_DAEMON}
    assert (out["frozen"] > 0).all()
