"""Time one set-up in a fresh process: import ttaction and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken; ``run.py`` starts several and reports the median.
"""

import sys
import time

from run import configure


def main(workload, seed):
    configure()
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload].make_inputs(seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
