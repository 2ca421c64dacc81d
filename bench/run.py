"""Benchmark of band-lt, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: one child process runs one operation at a time
for about S seconds (at least two operations).  Each child runs under a
wall-clock timeout; a timeout, an exception, a failed output check or a
changed artifact digest counts as a failed operation.  Set-up time is
measured from child spawn to its first timed operation, five times per
run (four set-up-only children and the measuring child), and reported as
the median.  ``wall_s`` is the upper quartile of the operation times of
the run, not their median: on a shared 2-vCPU host the times drop by up
to 40% during spells of some 20 s, and the upper quartile moves only
when such a spell covers most of a run.

The last stdout line is the result object; the line before it holds the
details (per-operation samples, quartiles, digests, machine record),
which are also written to bench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 8.0
RUN_TIMEOUT_MARGIN_S = 90.0
# One BLAS thread: at these sizes a second thread does not speed up the
# dense eigensolver on a 2-core box, and it makes times noisier.
BLAS_THREADS = 1


class ChildFailed(Exception):
    pass


def machine_record() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "blas_threads_set": BLAS_THREADS}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def code_hash() -> str:
    """Digest of the program and of the workload definitions: artifact
    digests are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Child:
    """A worker process whose protocol lines are read with a deadline."""

    def __init__(self, args: list[str], env: dict, timeout: float):
        self.spawned = time.perf_counter()
        self.deadline = self.spawned + timeout
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_event(self) -> dict | None:
        """Next protocol event; None at end of output or on timeout."""
        try:
            line = self.lines.get(timeout=max(0.0, self.deadline - time.perf_counter()))
        except queue.Empty:
            return None
        return None if line is None else json.loads(line)

    def close(self) -> int:
        """Wait for the exit until the deadline, then kill."""
        try:
            code = self.proc.wait(timeout=max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        return code


def setup_probe(args: list[str], env: dict) -> float:
    child = Child(args + ["--setup-only"], env, PROBE_TIMEOUT_S)
    try:
        event = child.next_event()
        elapsed = time.perf_counter() - child.spawned
    finally:
        code = child.close()
    if event is None or event["event"] != "ready" or code != 0:
        raise ChildFailed(f"set-up child failed (exit {code})")
    return elapsed


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_digests(ops: list[dict], key: str) -> None:
    """Mark operations whose artifacts differ from the first digest seen
    for this code, workload and seed, in this run or an earlier one."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    for op in ops:
        if op["digest"] is None:
            continue
        ref = store.setdefault(key, op["digest"])
        if op["digest"] != ref:
            op["problems"].append(f"artifact digest differs from {ref}")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(worker_args: list[str], env: dict, timeout: float):
    """Set-up probes, then the measuring child.  Returns the set-up times,
    the operations, the ``done`` event (None if the child ended early)
    and whether the child ended during its timed loop."""
    setup = [setup_probe(worker_args, env) for _ in range(SETUP_PROBES)]
    child = Child(worker_args, env, timeout)
    ops, done, checking = [], None, False
    try:
        event = child.next_event()
        if event is None or event["event"] != "ready":
            raise ChildFailed("measuring child failed during set-up")
        setup.append(time.perf_counter() - child.spawned)
        while (event := child.next_event()) is not None:
            if event["event"] == "op":
                ops.append({**event, "problems": None})
            elif event["event"] == "check":
                checking = True
                ops[event["i"]]["problems"] = event["problems"]
            elif event["event"] == "done":
                done = event
    finally:
        child.close()
    return setup, ops, done, done is None and not checking


def layer_metrics(ops: list[dict], plain: list[float], spec: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"] and op["layers"]]
    if not traced:
        return {}
    values = {m["name"]: statistics.median(op["layers"][m["name"]] for op in traced)
              for m in spec if m["name"] in traced[0]["layers"]}
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    plain_wall = statistics.median(plain)
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_dir = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", str(run_dir)]
    run_dir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        setup, ops, done, died_in_loop = measure(
            worker_args, child_env(), args.seconds + RUN_TIMEOUT_MARGIN_S)
        if (run_dir / "spans.json").exists():
            shutil.move(run_dir / "spans.json", results / f"{tag}-spans.json")
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for op in ops:
        if op["error"] is not None:
            op["problems"] = [op["error"]]
        elif op["problems"] is None:
            op["problems"] = ["output not checked: the child ended early"]
    check_digests(ops, f"{code_hash()}:{args.workload}:{args.seed}")
    # a child that timed out or crashed in its timed loop leaves one
    # operation unreported
    attempted = len(ops) + died_in_loop
    failed = sum(1 for op in ops if op["problems"]) + died_in_loop

    plain = [op["wall_s"] for op in ops if not op["traced"]]
    if not plain:
        print("bench: no operation completed", file=sys.stderr)
        return 1
    peak_rss_mb = (done["peak_rss_mb"] if done else
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ended_early": done is None,
        "fail_frac": failed / attempted,
        "wall_s": summary(plain), "wall_samples": plain,
        "setup_s": summary(setup), "setup_samples": setup, "peak_rss_mb": peak_rss_mb,
        "machine": {**machine_record(), **(done["machine"] if done else {})},
        "digests": [op["digest"] for op in ops],
        "problems": [p for op in ops for p in op["problems"]],
    }
    if args.trace:
        metrics = layer_metrics(ops, plain, done["per_layer"]) if done else {}
        if not metrics:
            print("bench: traced run ended early", file=sys.stderr)
            return 1
        detail.update(wrapped=done["wrapped"], blind_spots=done["blind_spots"],
                      traced_wall_s=summary([op["wall_s"] for op in ops if op["traced"]]))
    else:
        metrics = {"wall_s": {"value": detail["wall_s"]["q3"], "unit": "s"},
                   "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    (results / f"{tag}.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1))
    print(f"{args.workload} seed {args.seed}: wall_s {detail['wall_s']['q3']:.6g} s "
          f"(median {detail['wall_s']['median']:.6g} s), "
          f"setup_s {detail['setup_s']['median']:.6g} s, peak_rss_mb {peak_rss_mb:.6g} MB, "
          f"fail_frac {detail['fail_frac']:.6g} ({failed}/{attempted})")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
