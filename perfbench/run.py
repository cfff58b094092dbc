"""colonlab benchmark: time to a checked verdict on three workloads.

    python3 perfbench/run.py                     # every workload, untraced and traced
    python3 perfbench/run.py --workload ladder-fp --seed 3 --seconds 30 --trace 0

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("ladder-fp", "oracle-fp", "equiv-q-cli")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
CHILD_TIMEOUT_S = 170


def import_program():
    """Import colonlab from this checkout's sources, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import colonlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import colonlab from {SRC}: {exc}")
    if Path(colonlab.__file__).resolve().parent != SRC / "colonlab":
        sys.exit(f"perfbench: colonlab imported from {colonlab.__file__}, not from {SRC}")


def child(args, *extra):
    """Run this script in a fresh interpreter and return its last stdout line as JSON."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(extra) or 'run'} of {args.workload} exited {proc.returncode}")
    return proc.stdout, json.loads(lines[-1])


def environment(args, passes, digests, mix, workloads):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "inputs_digest": digests,
        "mix": mix,
        "why": workloads.WHY[args.workload],
    }


def timed_pass(run, instances, times, failures, gauge=None, spans=None):
    """Run one pass, appending per-instance wall times; returns their sum.

    With a sampling `gauge` (reference.py), the kernel samples taken while an
    instance ran are taken off its time and the instance's (start, end) is
    appended to `spans`.
    """
    wall = 0.0
    for inst in instances:
        t = time.perf_counter()
        try:
            run(inst)
        except Exception as exc:  # every miss or crash is counted, never dropped
            failures.append(f"{inst.key()}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        dt = end - t
        if gauge is not None:
            dt -= gauge.kernel_s(t, end)
            spans.append((t, end))
        times.append(dt)
        wall += dt
    return wall


def setup_sample(wall_s):
    """The set-up wall time just measured in this process, and that time at the
    reference core speed gauged right after it."""
    gauge = reference.Gauge()
    gauge.sample_for(0.25)
    ref_s = gauge.to_reference(wall_s, gauge.at[0], gauge.at[-1])
    return {"setup_s": ref_s, "setup_wall_s": wall_s}


def result_line(attempted, failures, metrics):
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def hd_quantile(values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile: a mean of all order statistics
    weighted by the Beta((n+1)q, (n+1)(1-q)) density. Unlike a single order
    statistic it does not jump when neighbouring instance times trade places
    across a gap."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
    peak = max(logs)
    weights = [sum(math.exp(v - peak) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_q(pass_size):
    """The quantile with 10 instances beyond it per pass, so the percentile is
    fixed by the pass composition, not by how many passes fit."""
    return (pass_size - 10) / pass_size


def run_untraced(args, workloads, first, setup):
    setups = [setup] + [child(args, "--setup-only")[1] for _ in range(SETUP_SAMPLES - 1)]
    pass_size = len(first)
    times, spans, failures, pass_walls, digests = [], [], [], [], [workloads.digest(first)]
    instances = first
    with reference.Gauge() as gauge:
        while True:
            start = time.perf_counter()  # pass wall time includes the kernel samples
            timed_pass(workloads.run_instance, instances, times, failures, gauge, spans)
            pass_walls.append(time.perf_counter() - start)
            elapsed = sum(pass_walls)
            if elapsed + 0.5 * elapsed / len(pass_walls) >= args.seconds:
                break
            instances = workloads.make_pass(args.workload, args.seed, len(pass_walls))
            digests.append(workloads.digest(instances))
    scaled = [gauge.to_reference(t, *span) for t, span in zip(times, spans)]
    t0 = spans[0][0]
    tail_pct = 100.0 * tail_q(pass_size)
    info = environment(args, len(pass_walls), digests, workloads.mix_summary(first), workloads)
    info.update(
        pass_wall_s=pass_walls,
        instance_s=[round(t, 6) for t in times],
        instance_ref_s=[round(t, 6) for t in scaled],
        instance_start_s=[round(s - t0, 4) for s, _ in spans],
        reference_at_s=[round(a - t0, 4) for a in gauge.at],
        reference_unit_s=[round(u, 7) for u in gauge.unit_s],
        samples=len(times),
        tail_percentile=round(tail_pct, 1),
        reference_nominal_s=reference.REFERENCE_UNIT_S,
        wall_verdicts_per_s=len(times) / sum(times),
        wall_verdict_s_p50=hd_quantile(times, 0.5),
        wall_verdict_s_tail=hd_quantile(times, tail_q(pass_size)),
        setup_samples=setups,
        failed_frac=len(failures) / len(times),
    )
    print(json.dumps({"info": info}))
    metrics = {
        "verdicts_per_s": (len(scaled) / sum(scaled), "1/s"),
        "verdict_s_p50": (hd_quantile(scaled, 0.5), "s"),
        "verdict_s_tail": (hd_quantile(scaled, tail_q(pass_size)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {len(failures) / len(times):.6g} ratio "
          f"({len(failures)} of {len(times)}; p50 and p{tail_pct:.1f} over {len(times)} instances)")
    return result_line(len(times), failures, metrics)


def traced_pass(workloads, instances):
    tracer = tracing.Tracer()
    tracer.install()
    times, failures = [], []
    wall = timed_pass(tracer.wrap("bench.instance", workloads.run_instance), instances, times, failures)
    return tracer, tracer.metrics(wall, len(times)), failures


def run_traced(args, workloads, first):
    tracer, metrics, failures = traced_pass(workloads, first)
    # Self-check: a second traced run of the same seed in a fresh interpreter
    # must reproduce every count exactly.
    _, other = child(args, "--trace-counts")
    mine = tracing.deterministic(metrics)
    differing = sorted(k for k in mine if mine[k] != other.get(k))
    if differing:
        failures.append(f"per-layer counts differ between two traced runs: {differing}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    info = environment(args, 1, [workloads.digest(first)], workloads.mix_summary(first), workloads)
    tracer.write(path, info)
    info.update(spans_file=str(path.relative_to(ROOT)), counts_repeat=not differing)
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return result_line(len(first), failures, metrics)


def info_of(text):
    return next(json.loads(line)["info"] for line in text.splitlines() if line.startswith('{"info"'))


def run_all(args):
    """Every workload in its own fresh interpreters: untraced, then traced."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        args.workload = workload
        runs, texts = {}, {}
        for trace in ("0", "1"):
            try:
                texts[trace], runs[trace] = child(args, "--trace", trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{workload} trace={trace}: {exc}")
                ok = False
                continue
            print(texts[trace], end="")
            ok = ok and runs[trace]["correct"]
        if len(runs) == 2:
            plain = info_of(texts["0"])["wall_verdicts_per_s"]
            traced = runs["1"]["metrics"]["trace.verdicts_per_s"]["value"]
            print(f"{workload} tracing overhead: traced - untraced wall verdicts/s = "
                  f"{traced - plain:.4g} 1/s ({100.0 * (traced - plain) / plain:+.1f}%)")
        summary[workload] = runs
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time; whole passes run, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-counts", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_program()
    if args.workload == "all":
        return run_all(args)

    import workloads

    first = workloads.make_pass(args.workload, args.seed, 0)
    setup_wall_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps(setup_sample(setup_wall_s)))
    elif args.trace_counts:
        _, metrics, _ = traced_pass(workloads, first)
        print(json.dumps(tracing.deterministic(metrics)))
    elif args.trace:
        print(run_traced(args, workloads, first))
    else:
        print(run_untraced(args, workloads, first, setup_sample(setup_wall_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
