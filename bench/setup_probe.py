"""Time one set-up of a workload in this fresh interpreter and print it.

    python3 bench/setup_probe.py <workload> <seed>

The time runs from just before ``import psiwb`` until the first query is
ready: the import, the instances, and building and well-formedness-checking
every input.  Nothing but ``sys`` and ``time`` is imported before it starts.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports psiwb)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
