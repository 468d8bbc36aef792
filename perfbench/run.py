"""gapforge benchmark.

One run:
    python3 perfbench/run.py --workload one_sided_driver --seed 1 --seconds 10 --trace 0

sets the workload up, then runs its operation in a closed loop with one
client for --seconds (rounded up to whole cycles over the inputs), checks
every output, and prints descriptors and every metric by name and unit. The
last line of standard output is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). The exit code is 0 only
when every output check passed.

Held-out seeds:
    python3 perfbench/run.py --heldout [--workload NAME]
runs each workload on the default and the held-out seed, traced and
untraced, and prints each metric's spread and the tracing overhead.

Recording the expected outputs of the shipped seeds:
    python3 perfbench/run.py --record --seeds 0-23 [--workload NAME]
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the float32 count kernel goes through threaded
# OpenBLAS, so the thread count must match on every commit compared.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED, HELDOUT_SEED = 1, 2

sys.path.insert(0, str(SRC))
try:
    import gapforge
except ImportError as exc:
    sys.exit(f"perfbench: cannot import gapforge from {SRC}: {exc}")
if Path(gapforge.__file__).resolve().parent != SRC / "gapforge":
    sys.exit(f"perfbench: gapforge resolved to {gapforge.__file__}, not to {SRC}")

import numpy as np

sys.path.insert(0, str(HERE))
from tracing import Tracer
from workloads import COMMANDS, WORKLOADS, sha256


def environment() -> dict:
    """BLAS thread count and library versions, as run."""
    threads = "unknown"
    libs = sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*"))
    if libs:
        import ctypes

        lib = ctypes.CDLL(str(libs[0]))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except Exception:
        openblas = "unknown"
    return {
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
    }


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def flag_changes(label: str, recorded: dict, now: dict) -> list[str]:
    return [
        f"FLAG {label}{k}: seed-commit run had {recorded[k]!r}, this run has {now.get(k)!r}"
        for k in sorted(recorded)
        if recorded[k] != now.get(k)
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    inputs = w.inputs(seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    recorded = load_expected()
    expected = recorded.get(name, {}).get(str(seed))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as tmp:
        setup_s = []
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            state = w.setup(inputs, seed, Path(tmp))
            setup_s.append(time.perf_counter() - t0)

        op_s, failed, trials, balanced, checked = [], 0, 0, 0, 0
        command_s = {c: [] for c in COMMANDS}
        lines: list[str] = []
        first_desc: dict = {}
        start = time.perf_counter()
        i = 0
        # whole cycles over the inputs, so every run's median is over the same mix
        while i % w.cycle or i == 0 or time.perf_counter() - start < seconds:
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                res = w.op(state, seed, i)
            except Exception:
                op_s.append(time.perf_counter() - t0)
                traceback.print_exc()
                failed += 1
                i += 1
                continue
            op_s.append(time.perf_counter() - t0)
            problems = list(res.problems)
            if expected and i < len(expected["ops"]):
                want = expected["ops"][i]
                checked += 1
                for out, digest in want["outputs"].items():
                    got = sha256(res.outputs[out]) if out in res.outputs else None
                    if got != digest:
                        problems.append(f"{out} sha256 differs from the seed commit")
                lines += flag_changes(f"op{i}.", want["descriptors"], res.descriptors)
            for p in problems:
                print(f"CHECK FAILED op {i}: {p}", file=sys.stderr)
            failed += bool(problems)
            trials += res.trials
            balanced += res.balanced
            for c, dt in res.command_s.items():
                command_s[c].append(dt)
            if i == 0:
                first_desc = res.descriptors
            i += 1
        if tracer:
            tracer.op = None
            tracer.paused = True
        checked_desc, run_problems = w.check(state) if w.check else ({}, [])
    attempted = i
    for p in run_problems:
        print(f"CHECK FAILED after the ops: {p}", file=sys.stderr)
    # a failed check after the ops counts as one more failed op
    failed = min(attempted, failed + len(run_problems))

    env = environment()
    desc = {**env, **state["descriptors"], **checked_desc}
    desc.update({f"op0.{k}": v for k, v in first_desc.items()})
    if trials:
        desc["balanced_share"] = round(balanced / trials, 6)
    if expected:
        lines += flag_changes("", expected["setup"], state["descriptors"])
    lines += flag_changes("", recorded.get("environment", {}), env)

    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"error_rate": (failed / attempted, "ratio"), "ops": (attempted, "count")}
    if attempted >= 100:
        extra["op_s.p90"] = (statistics.quantiles(op_s, n=10)[-1], "s")
    if trials:
        extra["trials_per_s"] = (trials / sum(op_s), "1/s")
    for c, times in command_s.items():
        if times:
            extra[f"cmd.{c}_s"] = (statistics.median(times), "s")

    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# ops={attempted} failed={failed} digests_checked={checked}")
    print("# setup_s " + " ".join(f"{t:.3f}" for t in setup_s))
    print("# op_s " + " ".join(f"{t:.3f}" for t in op_s[:50]))
    for k, v in desc.items():
        print(f"descriptor {k} = {v}")
    for line in lines:
        print(line)
    metrics = dict(e2e)
    if tracer:
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        metrics = tracer.metrics(w.setup_reps, attempted)
        metrics["trace.op_s.p50"] = e2e["op_s.p50"]
    for k, (v, unit) in {**e2e, **extra, **metrics}.items():
        print(f"metric {k} {v:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


def record(seeds: list[int], names: list[str]):
    """Write the digests and descriptors of the first ops of the named
    workloads on each seed to expected.json, merging into what it holds."""
    doc = load_expected()
    doc["environment"] = environment()
    OUT_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        states = {}
        with tempfile.TemporaryDirectory(prefix="record-", dir=OUT_DIR) as tmp:
            for w in (WORKLOADS[n] for n in names):
                if w.setup not in states:
                    states[w.setup] = w.setup(w.inputs(seed), seed, Path(tmp))
                state = states[w.setup]
                ops = []
                for i in range(w.record_ops):
                    t0 = time.perf_counter()
                    res = w.op(state, seed, i)
                    print(f"{w.name} seed {seed} op {i}: {time.perf_counter() - t0:.3f} s {res.descriptors}")
                    if res.problems:
                        raise RuntimeError(f"{w.name} seed {seed} op {i}: {res.problems}")
                    ops.append(
                        {
                            "outputs": {k: sha256(v) for k, v in res.outputs.items()},
                            "descriptors": res.descriptors,
                        }
                    )
                doc.setdefault(w.name, {})[str(seed)] = {
                    "setup": state["descriptors"],
                    "ops": ops,
                }
                print(f"recorded {w.name} seed {seed}: {len(ops)} ops", flush=True)
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def heldout(names: list[str], seconds: float):
    """Default and held-out seed, untraced and traced, in child processes."""
    for name in names:
        results = {}
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            for trace in (0, 1):
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr)
                    sys.exit(f"perfbench: {name} seed {seed} trace {trace} failed")
                results[seed, trace] = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        print(f"## {name}: seeds {DEFAULT_SEED} / {HELDOUT_SEED}")
        for trace in (0, 1):
            a, b = results[DEFAULT_SEED, trace], results[HELDOUT_SEED, trace]
            for k in a:
                va, vb, unit = a[k]["value"], b[k]["value"], a[k]["unit"]
                mean = (va + vb) / 2
                spread = abs(va - vb) / mean if mean else 0.0
                print(f"{k:60s} {va:12.6g} {vb:12.6g} {unit:6s} spread {spread:.3f}")
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            traced = results[seed, 1]["trace.op_s.p50"]["value"]
            plain = results[seed, 0]["op_s.p50"]["value"]
            print(f"tracing overhead seed {seed}: op_s.p50 {plain:.6g} s untraced, "
                  f"{traced:.6g} s traced, {traced - plain:+.6g} s ({(traced - plain) / plain:+.1%})")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", type=parse_seeds, default=None, help="for --record, e.g. 0-23")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.record:
        record(args.seeds or [DEFAULT_SEED], names)
    elif args.heldout:
        heldout(names, seconds)
    elif args.workload:
        sys.exit(run_workload(args.workload, args.seed, seconds, bool(args.trace)))
    else:
        ap.error("give --workload, --heldout or --record")


if __name__ == "__main__":
    main()
