"""Installs the span recorders at interpreter start-up.

The traced ``track-http`` run puts this directory on ``PYTHONPATH`` of
the ``repro serve`` process, so the server and the shard it spawns both
import it before running any repo code.  Without ``PERFBENCH_TRACE_DIR``
in the environment it does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    from perfbench import tracing

    tracing.install(os.environ["PERFBENCH_TRACE_DIR"])
