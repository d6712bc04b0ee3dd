"""Set-up probe: a fresh interpreter imports spinboost.cli and builds one workload's inputs.

Usage: python3 bench/probe.py <workload> <seed>. ``run.py`` times whole
runs of this script, which is what a CLI user pays before any work.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spinboost.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
