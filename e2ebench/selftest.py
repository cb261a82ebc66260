#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/selftest.py [--seconds S] [--workload NAME ...]

Validates `BENCHMARK.json` against the benchmark contract (key sets, name
and unit syntax, bounds, `setup_s`), then runs every workload briefly,
untraced and traced, and checks each result line: exactly the contract's
keys, a correct and failure-free run, every declared metric present with its
unit and a finite value (end-to-end values above zero), and the traced
consumer stage shares reconciling with the consumer thread's wall time. It
also checks that each run's report is stamped with core count, commit, seed
and input sizes, and that the traced report names a bounding stage.
Exits non-zero on the first failure.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHARES = ["consumer.monitor_share", "consumer.snapshot_share", "consumer.checkpoint_write_share",
          "consumer.alert_share", "consumer.pipeline_share"]
STAMPS = ["nproc", "commit", "source_digest", "seed", "users", "drain_events", "drain_log_bytes",
          "paced_events", "snapshot_bytes", "attempted", "failed"]
FLEET_ONLY = ["fleet.launch_s", "fleet.register_s", "fleet.submit_s", "fleet.checkpoint_s",
              "fleet.relaunch_s", "fleet.recoveries"]
SEED = 7


class Failure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Failure(message)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys: {sorted(spec)}")
    expect(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int), "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for workload in spec["workloads"]:
        expect(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        expect(len(workload["why"]) <= 200 and "\n" not in workload["why"], f"why of {workload['name']}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        expect(set(metric) == {"name", "unit", "better", "bound"}, f"end_to_end keys {sorted(metric)}")
        expect(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        expect(set(metric) == {"name", "unit", "better"}, f"per_layer keys {sorted(metric)}")
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(metric["unit"]), f"unit of {metric['name']}")
        expect(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
    for name in names:
        expect(NAME.match(name), f"name `{name}`")
    expect(len(names) == len(set(names)), "names must be unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    expect(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")
    for path in spec["paths"]:
        expect(re.match(r"^[A-Za-z0-9_.\-/]{1,200}$", path) and not path.startswith("/")
               and ".." not in path.split("/"), f"path {path}")


def run_once(workload, trace, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and lines,
           f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_result(result, declared, workload, trace):
    where = f"{workload} trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(result["correct"] is True, f"{where}: incorrect output")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    expect(isinstance(result["failed"], int) and result["failed"] == 0, f"{where}: {result['failed']} failed")
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} differ from BENCHMARK.json")
    for metric in declared:
        reported = metrics[metric["name"]]
        expect(set(reported) == {"value", "unit"}, f"{where}: {metric['name']} keys")
        expect(reported["unit"] == metric["unit"], f"{where}: unit of {metric['name']}")
        value = reported["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {metric['name']} = {value}")
        if "bound" in metric:
            expect(value > 0, f"{where}: end-to-end {metric['name']} must be above zero, got {value}")
    if trace:
        shares = [metrics[name]["value"] for name in SHARES]
        expect(all(share >= -1e-9 for share in shares), f"{where}: negative stage share {shares}")
        expect(abs(sum(shares) - 1.0) < 1e-6, f"{where}: consumer shares sum to {sum(shares)}")
        busy = metrics["monitor.busy_share"]["value"]
        expect(abs(busy + metrics["consumer.pipeline_share"]["value"] - 1.0) < 1e-6,
               f"{where}: busy share does not reconcile with the pipeline share")


def check_report(workload, trace):
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    report = json.loads(path.read_text())
    missing = [key for key in STAMPS if key not in report]
    expect(not missing, f"{path.name}: missing stamps {missing}")
    expect(report["seed"] == SEED and report["nproc"] >= 1, f"{path.name}: stamps")
    if trace:
        expect(report.get("bounding_stage"), f"{path.name}: no bounding stage")
        expect(abs(report["consumer_shares_sum"] - 1.0) < 1e-6, f"{path.name}: shares sum")
        if workload.startswith("fleet"):
            missing = [key for key in FLEET_ONLY if key not in report]
            expect(not missing, f"{path.name}: missing fleet metrics {missing}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_spec(spec)
        print("BENCHMARK.json: ok", flush=True)
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        for workload in workloads:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                result = run_once(workload, trace, args.seconds)
                check_result(result, declared, workload, trace)
                check_report(workload, trace)
                print(f"{workload} trace {trace}: ok ({len(result['metrics'])} metrics)", flush=True)
    except Failure as failure:
        print(f"selftest FAILED: {failure}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
