"""The one SparkSession builder shared by the tests, the jobs and the
benchmark."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

WORKER_DAEMON = "repro.worker_daemon"


def build_session(
    app: str, *, shuffle_partitions: int | str = 64, driver_memory: str | None = None
) -> SparkSession:
    """A local-mode session: Arrow on, broadcast joins off, and Python
    workers forked from :mod:`repro.worker_daemon`.

    Master and driver memory are read when the JVM starts, so they go into
    ``PYSPARK_SUBMIT_ARGS`` unless the caller (or ``spark-submit``) has
    already set it. Broadcast joins are disabled so every query runs the
    shuffle path.
    """
    mem = f"--driver-memory {driver_memory} " if driver_memory else ""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} {mem}"
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.daemon.module", WORKER_DAEMON)
        .getOrCreate()
    )
