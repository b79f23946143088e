#!/usr/bin/env python3
"""Build and run the libLFO serve + retrain benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the repository's libraries and the perfbench binary in Release,
runs one workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

The build tree is $CARGO_TARGET_DIR (default .bench_build) /
perfbench-<code key>. The code key is a digest of the checkout's path and
of the sources perfbench builds (CMakeLists.txt, src/, perfbench/), so
two checkouts, or two versions of the code, never share a build tree.
Next to the binary a ledger (runs.jsonl) records each run of that code:
a run fails its correctness check when its deterministic results (bhr,
ohr, pred_error) differ from an earlier run of the same code, workload
and seed, and a traced run reports trace_overhead against the untraced
runs of the same code, workload and seed. See README.md for the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("serve_model", "retrain_window")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def code_key(root):
    """Digest of the checkout's path and the sources perfbench builds."""
    digest = hashlib.sha256(root.encode())
    files = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", HERE):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        digest.update(b"\0" + os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build(root, out):
    """Configure (once per build tree) and build; return the binary."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", root, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake")],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(out, "perfbench", "perfbench")


def run_once(binary, args, trace):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed no result")
    return json.loads(lines[-1])


def load_ledger(path):
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail(f"{root} is not a libLFO source checkout (no CMakeLists.txt/src)")
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(root, base, "perfbench-" + code_key(root))
    try:
        binary = build(root, out)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    ledger_path = os.path.join(out, "runs.jsonl")
    ledger = load_ledger(ledger_path)
    new_entries = []

    # Every entry in this ledger is of the code this build tree holds.
    def same_runs():
        return [e for e in ledger + new_entries
                if e["workload"] == args.workload and e["seed"] == args.seed]

    def record(result, trace):
        new_entries.append({"workload": args.workload, "seed": args.seed,
                            "trace": trace,
                            "fingerprint": result["fingerprint"],
                            "rate": result["rate"]["value"]})

    def untraced_rates():
        return [e["rate"] for e in same_runs() if not e["trace"]]

    if args.trace and not untraced_rates():
        # trace_overhead needs an untraced reference of this code and seed.
        record(run_once(binary, args, 0), 0)

    result = run_once(binary, args, args.trace)
    correct = result["correct"]
    for earlier in same_runs():
        if earlier["fingerprint"] != result["fingerprint"]:
            correct = False
            print(f"perfbench: CHECK FAILED: deterministic results "
                  f"{result['fingerprint']} differ from an earlier run "
                  f"{earlier['fingerprint']} of the same seed",
                  file=sys.stderr)
            break

    metrics = result["metrics"]
    rate = result["rate"]
    if args.trace:
        reference = statistics.median(untraced_rates())
        # Slowdown factor of the traced run: > 1 means tracing cost time.
        if rate["name"] == "window_s":
            overhead = rate["value"] / reference
        else:
            overhead = reference / rate["value"]
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}

    record(result, args.trace)
    with open(ledger_path, "a") as f:
        for entry in new_entries:
            f.write(json.dumps(entry) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name, n in result["samples"].items():
        print(f"{args.workload} samples.{name} = {n}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
