#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build) under the root; spans and result files go next to it. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1. Workloads, metrics and their meaning: README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("gateway_zipf", "instructor_n1023")

# Every workload reports each of these; README.md says what each means
# on each workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "first.cost": "ratio",
    "second.cost": "ratio",
}
# The same untraced pass also measures the legs' latencies and CPU time
# (and the commit history's). On a shared host these spread run to run past
# any bound a regression gate can use, so they are reported with the
# per-layer metrics, ungated.
LEGS = {
    "first.p50_us": "us",
    "first.p99_us": "us",
    "first.cpu_s": "s",
    "second.p50_us": "us",
    "second.p99_us": "us",
    "second.cpu_s": "s",
}
# The gateway's load generator shares the process; its CPU is taken out of
# the cost and reported on its own.
GENERATOR = {f"workload.gen_cores_{rate}": "ratio" for rate in ("2.5k", "5k")}
COMMIT_LEGS = {
    f"storage.{name}.{half}_half": unit
    for half in ("first", "second")
    for name, unit in (("txn_us.p50", "us"), ("txn_us.p99", "us"), ("txn_cpu_s", "s"))
}


def _gateway_layers():
    out = {}
    for rate in ("2.5k", "5k"):
        for kind in ("search", "check-out", "doc"):
            for p in ("p50", "p99"):
                out[f"http.handler_us.{kind}.{p}_{rate}"] = "us"
        for p in ("p50", "p99"):
            out[f"http.outside_handler_us.{p}_{rate}"] = "us"
            out[f"http.client_us.{p}_{rate}"] = "us"
        out[f"workload.gen_late_us.p99_{rate}"] = "us"
    out.update({
        "storage.doc_fetch_us.p50": "us",
        "storage.doc_fetch_us.p99": "us",
        "http.bytes_out_per_req": "B",
        "http.search.results_per_query": "count",
        "http.overload_rejects": "count",
        "http.parse_errors": "count",
        "obs.trace.promoted.head": "count",
        "obs.trace.promoted.tail": "count",
        "obs.trace_overhead_frac.http": "ratio",
    })
    return out


def _commit_layers():
    out = {}
    for step in ("begin", "find", "update", "insert", "commit"):
        for p in ("p50", "p99"):
            out[f"storage.txn.{step}_us.{p}"] = "us"
    out.update({
        "storage.commit_us.first1k.p50": "us",
        "storage.commit_us.last1k.p50": "us",
        "storage.commit_us.last1k_over_first1k": "ratio",
        "storage.wal_appends_per_txn": "count",
        "storage.wal_bytes_per_txn": "B",
        "storage.wal_syncs_per_txn": "count",
        "storage.lock_waits": "count",
        "storage.btree_splits": "count",
        "obs.trace_overhead_frac.storage": "ratio",
    })
    return out


def _lecture_layers():
    out = {}
    for s in ("tree", "swarm"):
        out.update({
            f"lecture.push_wall_s.{s}": "s",
            f"lecture.run_wall_s.{s}": "s",
            f"net.messages.{s}": "count",
            f"net.msgs_per_wall_s.{s}": "1/s",
            f"net.wire_bytes_per_payload_byte.{s}": "ratio",
            f"dist.root_uplink_mb.{s}": "MB",
            f"dist.chunk.sent.{s}": "count",
            f"dist.chunk.retransmits.{s}": "count",
            f"rpc.retries.{s}": "count",
            f"dist.station_done_s.p50.{s}": "s",
            f"dist.station_done_s.p99.{s}": "s",
            f"dist.station_done_s.max.{s}": "s",
            f"dist.makespan_over_bound.{s}": "ratio",
        })
    out.update({
        "swarm.reqs": "count",
        "swarm.served": "count",
        "swarm.haves_sent": "count",
        "swarm.useful_ratio": "ratio",
        "swarm.wasted_bytes": "B",
        "net.payload.bytes_copied": "B",
        "obs.trace_overhead_frac.lecture": "ratio",
    })
    return out


# The ungated figures each workload's untraced pass reports.
UNGATED_BY_WORKLOAD = {
    "gateway_zipf": {**LEGS, **GENERATOR},
    "instructor_n1023": {**LEGS, **COMMIT_LEGS},
}
# Per-layer metrics each workload measures. A traced run reports the union;
# a layer the workload does not exercise reads 0.
LAYERS_BY_WORKLOAD = {
    "gateway_zipf": {**LEGS, **GENERATOR, **_gateway_layers()},
    "instructor_n1023": {**LEGS, **COMMIT_LEGS, **_commit_layers(), **_lecture_layers()},
}
PER_LAYER = {}
for _layers in LAYERS_BY_WORKLOAD.values():
    PER_LAYER.update(_layers)

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cmake_cache(build_dir):
    cache = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    return cache


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no wdoc sources under {ROOT}/src; run from a full checkout", 2)
    if shutil.which("cmake") is None:
        die("cmake not found", 2)
    build_dir = os.path.join(build_root(), "perfbench")
    # A cache configured from another source tree cannot be reused.
    home = cmake_cache(build_dir).get("CMAKE_HOME_DIRECTORY")
    if home is not None and os.path.realpath(home) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                die("build timed out")
            if rc != 0:
                log.flush()
                with open(log_path, encoding="utf-8", errors="replace") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed ({' '.join(cmd[:2])}); log in {log_path}")
    return build_dir


def source_digest():
    """sha256 over the benchmark's and the program's sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_metadata(build_dir, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_metrics(reported, expected, where, problems):
    """Returns {name: value} for `expected`, recording any mismatch."""
    values = {}
    for m in reported:
        name, unit, value = m["name"], m["unit"], m["value"]
        if name not in expected:
            problems.append(f"{where}: unexpected metric {name}")
        elif unit != expected[name]:
            problems.append(f"{where}: {name} in {unit}, expected {expected[name]}")
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
        else:
            values[name] = value
    return values


def report_of(proc, stdout, stderr, what):
    """Echoes a finished perfbench process's output; returns its report."""
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        die(f"{what} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run(args):
    build_dir = build(["perfbench"])
    out_dir = os.path.join(build_root(), "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    base = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out_dir]
    # Set-ups are timed in a second process, one every 500 ms for the whole
    # run: the host's speed drifts within seconds, and set-ups spread over
    # the run repeat far better than a burst of them. A process of its own
    # keeps their CPU and registry counters out of the workload's figures.
    cmds = (base + ["--trace", str(args.trace)], base + ["--trace", "0", "--setup", "1"])
    procs = [subprocess.Popen(c, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for c in cmds]
    outputs = []
    try:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        for p in procs:
            outputs.append(p.communicate(timeout=max(1, deadline - time.monotonic())))
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    report = report_of(procs[0], *outputs[0], args.workload)
    setup = report_of(procs[1], *outputs[1], f"{args.workload} set-up")
    report["end_to_end"] += setup["end_to_end"]
    report["attempted"] += setup["attempted"]

    problems = []
    own = LAYERS_BY_WORKLOAD[args.workload]
    untraced = {**END_TO_END, **UNGATED_BY_WORKLOAD[args.workload]}
    e2e = check_metrics(report["end_to_end"], untraced, "end_to_end", problems)
    problems += [f"end_to_end: {n} missing" for n in untraced if n not in e2e]
    problems += [f"end_to_end: {n} is {e2e[n]}, must be positive"
                 for n in END_TO_END if n in e2e and not e2e[n] > 0]
    ungated = {n: e2e.pop(n) for n in list(e2e) if n not in END_TO_END}
    layers = {}
    if args.trace:
        layers = check_metrics(report["per_layer"], own, "per_layer", problems)
        layers.update(ungated)
        problems += [f"per_layer: {n} missing" for n in own if n not in layers]

    meta = host_metadata(build_dir, args)
    print("host: " + json.dumps(meta, sort_keys=True))
    samples = {m["name"]: m["samples"] for m in report["end_to_end"] + report["per_layer"]}
    shown = {**END_TO_END, **(PER_LAYER if args.trace else own)}
    for name, unit in shown.items():
        value = e2e.get(name, layers.get(name, ungated.get(name)))
        if value is not None:
            print(f"metric {name} = {value:.6g} {unit} (n={samples.get(name, 0)})")
    for e in report["errors"]:
        print(f"FAILED CHECK: {e}")
    for e in report["invalid"] + problems:
        print(f"INVALID RUN: {e}")

    if args.trace:
        metrics = {n: {"value": layers.get(n, 0), "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e.get(n, 0), "unit": u} for n, u in END_TO_END.items()}
    correct = report["failed"] == 0 and not report["errors"] and not report["invalid"] \
        and not problems
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    path = os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"host": meta, "result": result, "report": report}, f, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def self_test():
    build_dir = build(["perfbench_tests"])
    rc = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                        timeout=RUN_TIMEOUT_S).returncode
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != END_TO_END:
            print("BENCHMARK.json end_to_end differs from run.py", file=sys.stderr)
            rc = rc or 1
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != PER_LAYER:
            print("BENCHMARK.json per_layer differs from run.py", file=sys.stderr)
            rc = rc or 1
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            print("BENCHMARK.json workloads differ from run.py", file=sys.stderr)
            rc = rc or 1
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
