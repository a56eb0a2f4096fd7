#!/usr/bin/env python3
"""Flow benchmark: time to a signed-off placement, with a per-layer replay.

    python3 flowbench/run.py --workload dt-10k --seed 1 --seconds 45 --trace 0

Run from the repository root.  Builds flowbench/ (and the placer libraries
under src/) into .bench_build/, then places the workload's design again and
again, each placement in its own flow_bench process, until --seconds have
passed.  Placement k starts from initial-position seed 3 * --seed + k % 3.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the run's placements),
--trace 1 the per-layer metrics of the traced replay (medians likewise) and
writes each placement's spans to .bench_out/.

flow_bench's watchdog ends a placement whose process stops using CPU (every
thread asleep, as when ThreadPool::dispatch never returns); the placement is
then started again.  Frozen attempts are reported on stderr and as
pool.frozen_attempts, not as failed placements: they strike at random, and a
failure count that changes from run to run would not compare between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BENCHMARK.json runs dt-10k and nw-3k; the other two run by hand.
WORKLOADS = ("dt-10k", "wl-10k", "nw-3k", "tdp-3k")
INIT_SEEDS = 3            # initial-position seeds a run cycles through
FROZEN_EXIT = 75          # flow_bench's exit code when its watchdog fired
RETRY_LIMIT_S = 120.0     # no attempt starts after this much wall time
RUN_LIMIT_S = 165.0       # a placement still running then is ended and failed

# Times are process CPU seconds (all threads), which the load of other
# tenants of a shared host moves far less than wall time.
E2E_UNITS = {
    "setup_s": "s",
    "place_cpu_s": "s",
    "flow_cpu_s": "s",
    "gp_iters": "count",
    "cpu_ms_per_iter": "ms",
    "hpwl_um": "um",
    "wns_neg_ns": "ns",
    "tns_neg_ns": "ns",
    "peak_rss_mib": "MiB",
}
# Quality is a pure function of the inputs: repeated placements of one seed
# must agree exactly.
DETERMINISTIC = ("gp_iters", "hpwl_um", "wns_neg_ns", "tns_neg_ns")


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "ns_per_" in name:
        return "ns"
    if name.endswith(("ratio", "share", "utilization")):
        return "ratio"
    return "count"


def log(msg):
    print(f"flowbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    build_dir = root / ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(build_dir), "--target", "flow_bench",
              "-j", jobs]]
    # Configure until a build system exists; after that the build step
    # re-runs CMake itself when a CMake file has changed.
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        steps.insert(0, ["cmake", "-S", str(root / "flowbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"flowbench: build failed: {' '.join(cmd)}")
    return build_dir / "flow_bench"


def attempts(results, failures):
    """Placements attempted: those that passed plus those that failed."""
    return len([r for r in results if r["ok"]]) + len(failures)


def place_once(binary, args, deadline):
    """Runs one placement, ending it if it still runs at `deadline`.

    Returns ("ok", result), ("frozen", None) or ("failed", reason)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "failed", "placement still running at the end of the run"
    if proc.returncode == FROZEN_EXIT:
        return "frozen", None
    if proc.returncode != 0:
        return "failed", f"flow_bench exited with code {proc.returncode}"
    try:
        return "ok", json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "failed", "flow_bench printed no result"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    out_dir = root / ".bench_out"
    if a.trace:
        out_dir.mkdir(exist_ok=True)

    # Placements run one after another while one more brings the run's
    # length nearer to --seconds.  They cycle through INIT_SEEDS
    # initial-position seeds derived from --seed, so a run of four or more
    # placements also checks that a seed placed twice gives the same quality.
    start = time.monotonic()
    results, failures, frozen = [], [], 0
    while True:
        placement_start = time.monotonic()
        init_seed = (a.seed * INIT_SEEDS + attempts(results, failures)
                     % INIT_SEEDS) % 2**64
        args = ["--workload", a.workload, "--seed", str(init_seed)]
        if a.trace:
            args += ["--trace", str(out_dir / f"{a.workload}-seed{a.seed}-"
                                              f"{len(results)}.trace.json")]
        status, value = place_once(binary, args, start + RUN_LIMIT_S)
        while status == "frozen" and time.monotonic() - start < RETRY_LIMIT_S:
            frozen += 1
            log(f"{a.workload} seed {a.seed}: placement froze; ended and "
                "started again")
            status, value = place_once(binary, args, start + RUN_LIMIT_S)
        if status == "ok":
            value["init_seed"] = init_seed
            m = value["metrics"]
            log(f"{a.workload} init seed {init_seed}: place "
                f"{m['place_cpu_s']:.3f} s CPU / {m['place_wall_s']:.3f} s "
                f"wall, flow {m['flow_cpu_s']:.3f} s CPU / "
                f"{m['flow_wall_s']:.3f} s wall")
            results.append(value)  # a failed check still ran to the end
            if not value["ok"]:
                failures.append(value["error"])
        else:
            frozen += status == "frozen"
            failures.append(value or "froze with no time left to retry")
        if status != "ok" or not value["ok"]:
            log(f"{a.workload} seed {a.seed}: placement failed: {failures[-1]}")
        now = time.monotonic()
        elapsed, last = now - start, now - placement_start
        if (abs(elapsed + last - a.seconds) >= abs(elapsed - a.seconds)
                or elapsed + last >= RETRY_LIMIT_S):
            break
    if not results:
        raise SystemExit("flowbench: no placement ran to its end")

    attempted = attempts(results, failures)
    # Quality is a pure function of the inputs: every placement from one
    # initial-position seed must reproduce it exactly.
    by_seed = {}
    for r in results:
        by_seed.setdefault(r["init_seed"], []).append(r)
    correct = all(len({r["metrics"][k] for r in group}) == 1
                  for group in by_seed.values() for k in DETERMINISTIC)
    if not correct:
        log("placements of one seed disagree on quality: " +
            json.dumps([{k: r["metrics"][k] for k in DETERMINISTIC}
                        for r in results]))

    metrics = {}
    if a.trace:
        for name in sorted(results[0]["layers"]):
            metrics[name] = {
                "value": statistics.median(r["layers"][name] for r in results),
                "unit": layer_unit(name)}
        metrics["pool.frozen_attempts"] = {"value": frozen, "unit": "count"}
        # Wall time of the traced flow: no bound, so parallel speed-ups that
        # leave CPU time unchanged still show somewhere.
        for name, key in (("gp.wall_s", "place_wall_s"),
                          ("flow.wall_s", "flow_wall_s")):
            metrics[name] = {
                "value": statistics.median(r["metrics"][key] for r in results),
                "unit": "s"}
        log("traced place_cpu_s median %.4f s (tracing overhead is this minus "
            "the untraced median)" % statistics.median(
                r["metrics"]["place_cpu_s"] for r in results))
    else:
        setups = [t for r in results for t in r["setup_s"]]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for name, unit in E2E_UNITS.items():
            if name != "setup_s":
                metrics[name] = {
                    "value": statistics.median(r["metrics"][name] for r in results),
                    "unit": unit}
    log(f"{a.workload} seed {a.seed}: {len(results)} placement(s), "
        f"{len(failures)} failed, {frozen} frozen, "
        f"{time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
