"""Set-up probe: a fresh interpreter made ready for a workload's first op.

``python3 perfbench/probe.py <workload>`` imports ``repro``, synthesizes
the plans the workload needs into the empty ``REPRO_PLAN_CACHE`` it is
given and, for ``fleet-fuzz``, spawns the fleet's workers once; then it
prints ``ready``.  ``run.py`` times it from process start to that line.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup()
    print("ready", flush=True)
