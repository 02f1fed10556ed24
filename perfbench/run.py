#!/usr/bin/env python3
"""One run of the ShieldStore benchmark.

    python3 perfbench/run.py --workload cache-rd95 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds the daemon
(tools/shieldstore_server.cc) and the benchmark driver from that checkout
into .bench_build/, runs the driver once for the workload, prints a report
(machine fingerprint, daemon flags, per-verb sample counts, every metric
with its unit) and ends with one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the untraced run against the
daemon; --trace 1 reports the per-layer metrics (it also runs the traced
in-process stack and writes a Chrome trace under .bench_build/traces/).
The exit status is 0 only when every operation succeeded and every answer
was correct.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TREE = os.path.join(BUILD, "perfbench")
DRIVER = os.path.join(BUILD_TREE, "perfbench_driver")
SERVER = os.path.join(BUILD_TREE, "shieldstore_tools", "shieldstore_server")

WORKLOADS = ("cache-rd95", "durable-rw50")

# Metric names as BENCHMARK.json lists them (test_perfbench.py checks).
END_TO_END = ("throughput_kops", "get_p50_us", "set_p50_us", "setup_s", "server_rss_mb",
              "server_cpu_us_per_op")
PER_LAYER = (
    "client.cpu_ratio", "client.get_p99_us", "client.set_p99_us",
    "net.ops_per_store_call", "net.self_us_p50", "net.seal_open_ns",
    "store.call_us_p50", "store.batch_ns_per_op", "store.single_ns_per_op",
    "store.decryptions_per_get", "store.mac_verifications_per_op", "store.hit_ratio",
    "crypto.ctr_bytes_per_op", "crypto.cmac_bytes_per_op",
    "wal.call_us_p50", "wal.self_us_p50", "wal.records_per_commit", "wal.commits_per_s",
    "wal.log_bytes_per_write", "wal.append_us", "wal.commit_prepare_us", "wal.fsync_us",
    "sgx.counter_increment_us", "sgx.counter_busy_ratio", "sgx.ecalls_per_op",
    "sgx.epc_faults_per_kop",
    "daemon.commit_wait_p50_us", "daemon.fsync_p50_us", "daemon.commit_batch_ops_mean",
    "daemon.coalesce_depth_mean", "daemon.reactor_loop_lag_p99_us",
    "trace.overhead_ratio", "trace.unattributed_get_us", "trace.unattributed_set_us",
)

DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the daemon and the driver."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "tools", "shieldstore_server.cc")):
        log("perfbench: no ShieldStore source tree next to perfbench/; nothing to build")
        return False
    jobs = str(os.cpu_count() or 2)
    if not os.path.isfile(os.path.join(BUILD_TREE, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_TREE, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_TREE, "--target", "shieldstore_server", "perfbench_driver",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def source_digest():
    """SHA-256 over the daemon's sources and build files, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(work_dir):
    cpuinfo = read_text("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    flags = next((line.split(":", 1)[1].split() for line in cpuinfo.splitlines()
                  if line.startswith("flags")), [])
    fs_type = "unknown"
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", work_dir], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            fs_type = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "aes_ni": "aes" in flags and "pclmulqdq" in flags,
        "kernel": platform.release(),
        "work_dir_fs": fs_type,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat: a virtual machine's host
    taking CPU time away shows as steal."""
    fields = read_text("/proc/stat").split("\n", 1)[0].split()
    values = [int(x) for x in fields[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def run_driver(args, work_dir):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", SERVER, "--work-dir", work_dir]
    if args.kill_daemon_after_ms is not None:
        cmd += ["--kill-daemon-after-ms", str(args.kill_daemon_after_ms)]
    # Own process group: whatever the driver leaves behind is killed below.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [line for line in out.splitlines() if line.startswith("{")]
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Test hook: SIGKILL the daemon this long after the window opens.
    parser.add_argument("--kill-daemon-after-ms", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 1
    build_s = time.monotonic() - started
    work_dir = os.path.join(BUILD, "run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        machine = fingerprint(work_dir)
        steal0, total0 = cpu_ticks()
        code, result = run_driver(args, work_dir)
        steal1, total1 = cpu_ticks()
        machine["cpu_steal_pct"] = round(100.0 * (steal1 - steal0) / max(total1 - total0, 1), 3)
        trace_file = None
        if result is not None and result.get("trace_file"):
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_file = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
            shutil.move(result["trace_file"], trace_file)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        log(f"perfbench: driver exited {code} without a result")
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    table = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: table[name] for name in names}
    report = {
        "workload": result["workload"],
        "seed": result["seed"],
        "seconds": result["seconds"],
        "trace": bool(args.trace),
        "machine": machine,
        "daemon_args": result["daemon_args"],
        "samples": result["samples"],
        "setup_s_each": result["setup_s_each"],
        "instance_kops": result["instance_kops"],
        "slice_kops": result["slice_kops"],
        "build_s": round(build_s, 3),
        "failures": result["failures"],
        "end_to_end": result["end_to_end"],
    }
    if args.trace:
        report["per_layer"] = result["per_layer"]
        report["not_applicable"] = result["not_applicable"]
        report["attribution"] = result["attribution"]
        report["trace_file"] = os.path.relpath(trace_file, ROOT) if trace_file else None
    for name, m in result["end_to_end"].items():
        print(f"{result['workload']:>18}  {name:<32} {m['value']!s:>24} {m['unit']}")
    if args.trace:
        for name, m in result["per_layer"].items():
            note = result["not_applicable"].get(name)
            shown = f"n/a ({note})" if note else m["value"]
            print(f"{result['workload']:>18}  {name:<32} {shown!s:>24} {m['unit']}")
    print(f"{result['workload']:>18}  samples get={result['samples']['get']} "
          f"set={result['samples']['set']}")
    print(json.dumps({"report": report}))
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
