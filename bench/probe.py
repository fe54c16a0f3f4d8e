"""Time the program's own set-up once, in this fresh process.

Usage: python3 bench/probe.py WORKLOAD SPEC_JSON SRC

Prints the seconds from before ``import relabel`` to the last graph and
configuration space the workload builds.  The seeded spec comes in as JSON,
so making inputs is not counted, and nothing the program imports is
imported before the clock starts.
"""

import json
import sys
from time import perf_counter

import build

workload, spec, src = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
t0 = perf_counter()
getattr(build, workload)(spec, src)
print(perf_counter() - t0)
