"""Benchmark of the graphvariety CLI.

    python3 perfbench/run.py --workload exact-q --seed 0 --seconds 30 --trace 0

Run from the repository root.  Writes the workload's seeded inputs, times the
program's set-up in fresh processes, then runs passes of the workload's CLI
commands in one worker process (see worker.py) and checks their outputs.  The
last line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which are the end-to-end metrics of BENCHMARK.json with --trace 0
and its per-layer metrics with --trace 1.  Raw spans of a traced run go to
.perfbench_out/.  With --record-digests the sha256 of every output of the
default seed is stored in perfbench/digests.json; later runs of that seed must
reproduce them byte for byte.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 12  # fresh processes before the worker, and as many after it
WORKER_GRACE_S = 120
# How fast a shared host runs Python code drifts by up to 1.7x within a run,
# over seconds.  The worker times a fixed Fraction loop (worker.probe) before
# every command, and each call is reported at the speed where that loop takes
# REFERENCE_PROBE_S, judged by the median of the probes nearest to the call:
# probe k is timed just before call k and probe k + 1 just after it.  The
# commands speed up and slow down less than the probe does: over 18 runs of
# the three workloads, the log-log slope of call time against that median
# was about 0.5, and scaling by its SPEED_EXPONENT power gave the smallest
# run-to-run spread at 0.75.
REFERENCE_PROBE_S = 0.020
NEAR_PROBES = (-1, 3)  # probes k - 1 .. k + 2
SPEED_EXPONENT = 0.75
# Set-up in a fresh process: import the package and build the CLI parser.
# The process also times a loop of builtin int and dict work, which imports
# nothing, just before and just after; the set-up time is reported at the
# speed where that loop takes REFERENCE_SETUP_LOOP_S.
REFERENCE_SETUP_LOOP_S = 0.005
PROBE = (
    "import sys, time\n"
    "def loop():\n"
    "    t = time.perf_counter()\n"
    "    acc, table = 0, {}\n"
    "    for i in range(20000):\n"
    "        table[i * 7919 % 10007] = i\n"
    "        acc += i * i % 7\n"
    "    return time.perf_counter() - t\n"
    "before = loop()\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from graphvariety import cli\n"
    "cli.build_parser()\n"
    "setup = time.perf_counter() - t\n"
    "print(setup, (before + loop()) / 2)\n"
)


def setup_times(warm):
    """Scaled set-up seconds of SETUP_PROBES fresh processes; with `warm`
    after one more that fills the bytecode cache."""
    times = []
    for k in range(SETUP_PROBES + warm):
        out = subprocess.run([sys.executable, "-c", PROBE, SRC], capture_output=True,
                             text=True, check=True, timeout=60).stdout
        setup, loop = (float(x) for x in out.split())
        if k >= warm:
            times.append(setup * REFERENCE_SETUP_LOOP_S / loop)
    return times


def context(result, args):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    lines = 0
    pkg = os.path.join(SRC, "graphvariety")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                lines += sum(1 for line in f if line.strip())
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "commit": commit,
            "nproc": os.cpu_count(), "src_lines": lines, "passes": len(result["passes"]),
            "probe_s": statistics.median(result["probes"]),
            "pass_wall_s": statistics.median(sum(p) for p in result["passes"])}


def end_to_end(steps, result, setup):
    """The end-to-end metrics.  Each call is scaled towards the reference
    speed; a command's time is the median of its scaled calls over the
    passes, and a metric sums its commands.  total_s sums all the command
    metrics: the scaled time of one pass.  The raw wall time of a pass is
    given in the context line as pass_wall_s."""
    values = {"setup_s": statistics.median(setup),
              "peak_rss_mib": result["peak_rss_mib"], "total_s": 0.0}
    probes = result["probes"]
    lo, hi = NEAR_PROBES
    scaled = []
    for k, times in enumerate(result["passes"]):
        calls = []
        for j, t in enumerate(times):
            i = k * len(times) + j
            near = statistics.median(probes[max(0, i + lo):i + hi])
            calls.append(t * (REFERENCE_PROBE_S / near) ** SPEED_EXPONENT)
        scaled.append(calls)
    for j, st in enumerate(steps):
        t = statistics.median(calls[j] for calls in scaled)
        values[st["metric"]] = values.get(st["metric"], 0.0) + t
        values["total_s"] += t
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "graphvariety", "cli.py")):
        sys.exit(f"no graphvariety sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    outdir = os.path.join(ROOT, ".perfbench_out")
    if args.trace:
        os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        steps = workloads.build(args.workload, args.seed, workdir)
        plan = {"steps": steps, "spans_out": os.path.join(
            outdir, f"spans-{args.workload}-seed{args.seed}.json.gz")}
        plan_path = os.path.join(workdir, "plan.json")
        result_path = os.path.join(workdir, "result.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        setup = setup_times(warm=1)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                        result_path, str(args.seconds), str(args.trace)],
                       check=True, timeout=args.seconds + WORKER_GRACE_S)
        setup += setup_times(warm=0)
        with open(result_path) as f:
            result = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    if args.seed == workloads.DEFAULT_SEED:
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                recorded = json.load(f)
        if args.record_digests:
            recorded[args.workload] = result["digests"]
            with open(DIGESTS, "w") as f:
                json.dump(recorded, f, indent=2, sort_keys=True)
                f.write("\n")
        expected = recorded.get(args.workload, {})
        last = len(result["passes"]) - 1
        for name, d in result["digests"].items():
            if expected.get(name) != d:
                failures.append([last, name, "output differs from the recorded digest"])
    for k, name, reason in failures:
        print(f"FAILED pass {k} {name}: {reason}")
    failed = len({(k, name) for k, name, _ in failures})

    if args.trace:
        print(f"{result['span_count']} spans of the last traced pass in {plan['spans_out']}")
        for cmd in result["per_command"]:
            top = ", ".join(f"{n} {s:.4f}s" for n, s in cmd["top_self"])
            print(f"trace {cmd['metric']}: main {cmd['main_total_s']:.4f}s, self sum "
                  f"{cmd['self_sum_s']:.4f}s, degeneracy_order calls "
                  f"{cmd['degeneracy_order_calls']}; top self: {top}")
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(steps, result, setup)
        wanted = spec["end_to_end"]
    # a function a traced pass never reached reports 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"context": context(result, args)}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
