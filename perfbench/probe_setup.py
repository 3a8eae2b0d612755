"""Time mkernel's set-up for one workload in a fresh process.

Usage: python3 probe_setup.py <workload> <path to src>

Times `import mkernel`, then building the workload's kernels and its
measures or domains, and prints the times as one JSON line. The parent sets
the BLAS thread variables before starting this process.
"""

import json
import sys
import time


def main():
    workload, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import mkernel

    t1 = time.perf_counter()
    import workloads  # the benchmark's own code, untimed; numpy is loaded already

    w = workloads.WORKLOADS[workload]
    t2 = time.perf_counter()
    w.build_kernels(mkernel)
    t3 = time.perf_counter()
    measures = w.build_measures(mkernel)
    t4 = time.perf_counter()
    nodes = sum(len(m) for m in measures.values() if isinstance(m, mkernel.QuadratureMeasure))
    print(json.dumps({
        "import_s": t1 - t0,
        "kernels_s": t3 - t2,
        "measures_s": t4 - t3,
        "nodes": nodes,
    }))


if __name__ == "__main__":
    main()
