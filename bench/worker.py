"""Child process of the benchmark: one workload, one seed.

Protocol: one JSON object per line on stdout.  ``ready`` marks the end
of set-up (imports and input generation); each timed operation emits
``op``; after the timed loop each operation's output check emits
``check``; ``done`` closes the run with the peak resident memory and the
machine record.  Library output to stdout is redirected to stderr so it
cannot corrupt the protocol.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def protocol_writer():
    """Keep the protocol on the original stdout and send everything else
    written to stdout to stderr.  Returns ``emit(event, **fields)``."""
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def emit(event: str, **fields) -> None:
        proto.write(json.dumps({"event": event, **fields}) + "\n")
        proto.flush()
    return emit


def blas_record() -> dict:
    import numpy as np
    import scipy

    deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.split("/")[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads[Path(path).name] = int(getattr(lib, fn)())
                break
    return {"blas": deps.get("name"), "blas_version": deps.get("version"),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    emit = protocol_writer()
    sys.path.insert(0, str(ROOT / "src"))

    import bandlt
    import workloads
    from spans import Tracer, blind_spots, self_times

    if not Path(bandlt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bandlt imported from {bandlt.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = Path(args.work_dir) / "out"
    out.mkdir(parents=True, exist_ok=True)
    inputs = wl.prepare(args.seed, out)
    emit("ready")
    if args.setup_only:
        return 0

    # At least two operations run, and another starts only if it should
    # end within the measuring time.  In a traced run, operations
    # alternate untraced / traced so the overhead compares neighbours.
    results, all_spans = [], []
    wrapped = []
    start = time.perf_counter()
    i, wall = 0, 0.0
    while i < 2 or time.perf_counter() - start + wall <= args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        tracer = Tracer(trace_id=i) if traced else None
        if traced:
            wrapped = tracer.install(workloads.MODULES, workloads.NAMERS,
                                     workloads.OBSERVERS)
            root = tracer.begin("op")
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = wl.run(inputs)
        except Exception:  # the operation failed; record it and go on
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        layers = None
        if traced:
            tracer.end(root)
            tracer.uninstall()
            wall = root.duration
            all_spans += tracer.spans
            layers = workloads.layer_metrics(self_times(tracer.spans), tracer.counts, wall)
        digest = workloads.digest(wl.artifacts(inputs, result)) if error is None else None
        emit("op", i=i, traced=traced, wall_s=wall, error=error, digest=digest,
             layers=layers)
        results.append((result, error))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, (result, error) in enumerate(results):
        if error is None:
            try:
                problems = wl.check(inputs, result)
            except Exception:  # a check that cannot run fails the operation
                problems = [traceback.format_exc()]
            emit("check", i=k, problems=problems)

    if args.trace:
        (Path(args.work_dir) / "spans.json").write_text(json.dumps(
            [vars(s) for s in all_spans]))
    emit("done", peak_rss_mb=peak_rss_mb, machine=blas_record(), wrapped=wrapped,
         blind_spots=blind_spots(workloads.MODULES),
         per_layer=workloads.per_layer_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
