"""One benchmark process: set up a workload, then run it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|timed|traced

``setup`` stops after the set-up, ``timed`` runs whole passes for
``--seconds`` with tracing off, and ``traced`` runs exactly one pass with
the layer spans installed, so its counts repeat exactly.  The process prints
one JSON object of raw results as its last line.  torusglue must be
importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args()

    t0 = perf_counter()
    import torusglue  # importing the library is part of set-up
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out: dict = {"setup_s": perf_counter() - t0, "torusglue": torusglue.__file__}
    if args.mode != "setup":
        golden = workloads.golden_digest(args.workload, "full")
        if args.mode == "timed":
            out.update(workloads.run(workload, args.seconds, golden))
        else:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                out.update(workloads.run(workload, 0, golden))
            finally:
                tracer.uninstall()
            out["layers"] = tracer.metrics()
            out["absent"] = tracer.absent
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
