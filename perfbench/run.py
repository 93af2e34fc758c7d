#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
check its outputs, print one JSON result line.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Workloads: fleet_lactate, fleet_me_bioz, campaigns_all (see
perfbench/README.md). The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The line before it is the full report (environment block, gate checks,
notes). Build output and diagnostics go to stderr.

The build lands in .bench_build/perfbench under the checkout root and
the span files in .bench_build/perfbench/out. Exit code 0 means a result
line was printed; a failed build or a crashed harness exits non-zero
without one.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ["fleet_lactate", "fleet_me_bioz", "campaigns_all"]
SETUP_SPAWNS = 21       # set-up is timed this many times; the median is reported
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result (build or harness failure)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no src/ under {ROOT}: run from a full checkout")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(min(4, cpu_count()))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def time_setup(workload, seed):
    """Process start to "ready": the harness constructs the workload's
    backends and service, then exits. Returns (seconds, env block)."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line.startswith("ready "):
        raise BenchError(f"set-up run failed (exit {code})")
    return elapsed, json.loads(line[len("ready "):])


def run_harness(workload, seed, seconds, trace, extra=()):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.json")
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"harness failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(spec, workload, seed, seconds, trace, extra=()):
    """One benchmark run of `workload`: returns (result line, report)."""
    setups = [time_setup(workload, seed) for _ in range(SETUP_SPAWNS)]
    env = dict(setups[0][1])
    env.update(cpu_model=cpu_model(), nproc=cpu_count(), git_sha=git_sha())
    if env["busy_threads"] > env["nproc"]:
        raise BenchError(f"{workload} keeps {env['busy_threads']} threads busy "
                         f"but only {env['nproc']} CPUs are available")
    if env["build_type"] != "Release":
        env["warning"] = "not a Release build: numbers are not comparable"
        log(env["warning"])

    out = run_harness(workload, seed, seconds, trace, extra)
    values = dict(out["metrics"])
    values["setup_s"] = statistics.median(s for s, _ in setups)
    attempted, failed = out["attempted"], out["failed"]
    values["ok_frac"] = (attempted - failed) / attempted

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    problems = [f"check {name} failed"
                for name, ok in out["checks"].items() if not ok]
    for m in wanted:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if values["exchanges_per_s"] <= 0:
        problems.append("no exchanges completed")
    for p in problems:
        log(f"{workload}: {p}")
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {"workload": workload, "seed": seed, "trace": bool(trace),
              "env": env, "checks": out["checks"], "notes": out["notes"],
              "setup_s_samples": [s for s, _ in setups]}
    return result, report


def selftest(spec):
    """Tiny run of every workload in both modes: every named metric must
    be printed with its unit, and the correctness gate must pass."""
    tiny = ("--unit-sessions", "6", "--unit-scenarios", "1")
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(spec, workload, 1, 0, trace, tiny)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    log(f"selftest: {workload} trace={trace}: {m['name']} "
                        f"not printed with unit {m['unit']}")
                    ok = False
            if not result["correct"] or result["failed"] != 0:
                log(f"selftest: {workload} trace={trace}: gate failed")
                ok = False
            log(f"selftest: {workload} trace={trace}: "
                f"{len(result['metrics'])} metrics, correct={result['correct']}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        spec = load_spec()
        build()
        if args.selftest:
            ok = selftest(spec)
            print(json.dumps({"selftest": "ok" if ok else "failed"}))
            return 0 if ok else 1
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for workload in names:
            result, report = run_workload(spec, workload, args.seed,
                                          args.seconds, args.trace)
            print(json.dumps(report))
            if len(names) > 1:
                print(json.dumps(result))
            results.append((workload, result))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{w}.{k}": v for w, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
