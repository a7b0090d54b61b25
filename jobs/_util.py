"""Shared spark-submit plumbing for the experiment jobs.

Each ``jobs/<name>.py`` wraps a function from
:mod:`repro.harness.experiments`; run them with ``spark-submit`` or plain
``python`` (a local session is created either way).
"""
from __future__ import annotations

import sys

from pyspark.sql import SparkSession

from repro.session import build_session


def get_spark(app: str) -> SparkSession:
    """The local session every job runs in (see :func:`build_session`)."""
    return build_session(app)


def main_for(exp_name: str) -> None:
    """Run one experiment by name and print its markdown table."""
    from repro.harness.experiments import ALL_EXPERIMENTS
    from repro.harness.reporting import to_markdown

    spark = get_spark(exp_name)
    try:
        points = ALL_EXPERIMENTS[exp_name](spark)
        print(to_markdown(points, exp_name))
    finally:
        spark.stop()
    sys.stdout.flush()
