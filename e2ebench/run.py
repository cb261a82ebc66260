#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call builds the `e2ebench` package (and its `privacy-shardd`
worker) from source with `cargo build --release --offline`, into
`$CARGO_TARGET_DIR` when set and `e2ebench/target` otherwise; later calls
find the build up to date. The benchmark binary then runs one workload in a
fresh process and prints, as the last line of standard output, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Reports and
spans go to `.bench_out/` at the checkout root.

Exits non-zero without a result line when the checkout lacks the
repository's sources or the build fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench/run.py: {message}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds from: the stamp a
    report carries when the checkout is not a git repository."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates",
             HERE / "Cargo.toml", HERE / "Cargo.lock", HERE / "src"]
    for root in roots:
        files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group; on timeout the whole group
    (the benchmark and any fleet workers) is killed and reaped."""
    proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s: {' '.join(map(str, command))}")
        return None, None
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"no repository sources at {ROOT} (Cargo.toml and crates/ are required)")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    code, _ = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        log("build failed")
        return 1

    env["E2EBENCH_COMMIT"] = commit()
    env["E2EBENCH_SOURCE"] = source_digest()
    # Flush what the build and earlier runs left dirty, so their writeback
    # does not land on this run's checkpoint fsyncs.
    os.sync()
    command = [str(target / "release" / "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", str(ROOT / ".bench_out")]
    code, stdout = run(command, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    if code is None:
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
