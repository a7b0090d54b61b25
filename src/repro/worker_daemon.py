"""Python worker daemon that preloads the pandas UDF stack before forking.

Spark starts one daemon per executor and forks a worker from it for each
task. With ``pyspark.daemon`` every worker imports pandas and pyarrow
itself, so each holds its own private copy of those modules. Importing
them here, in the parent, and freezing the collector's view of them
(``gc.freeze``) lets the forked workers share those pages copy-on-write;
the idiom of ``multiprocessing.set_forkserver_preload``. Selected with
``spark.python.daemon.module`` (see :mod:`repro.session`).
"""
import gc

import pandas  # noqa: F401
import pyarrow  # noqa: F401
import pyspark.sql.pandas.serializers  # noqa: F401
from pyspark import daemon

if __name__ == "__main__":
    gc.freeze()
    daemon.manager()
