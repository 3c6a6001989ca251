"""Benchmark of scanmend's desk-scale chain: training, ablation, and the user path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one process each

Each workload runs in its own process with BLAS pinned to one thread.  The
untimed set-up is done three times and its median reported as setup_s.
After each set-up the timed section repeats one fixed chunk of work for a
third of --seconds (at least one chunk); items_per_s is the chunks' work
over their summed wall time.
With --trace 0 the last line of output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric of a
traced run (see tracer.py), plus the tracing overhead against untraced
chunks of the same run.  Any failed check makes "correct" false and the
exit code 1.

The benchmark imports scanmend from src/ beside this directory; it exits
with code 2 when that is missing.
"""

import os

# Before numpy loads: one BLAS thread, as tests/conftest.py pins it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("ae-train", "gan-ablate", "scan-complete-score")

with open(os.path.join(HERE, "reference.json")) as _f:
    # result_emd per workload at the commit that defined the benchmark.
    REFERENCE = json.load(_f)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def timed_chunks(workload, seconds: float, tracer=None, probe=False) -> tuple:
    """Run chunks, at least one, until `seconds` have passed.

    Returns ([(Chunk, wall seconds)], per-chunk probe latencies, probe
    failures).  With `probe`, the latency probe follows every chunk, so its
    samples span the run as the chunks do.
    """
    runs, lat, failures = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.begin_chunk()
        t0 = time.perf_counter()
        chunk = workload.chunk()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_chunk()
        runs.append((chunk, dt))
        if probe:
            chunk_lat, chunk_failures = workload.probe()
            lat.append(chunk_lat)
            failures += chunk_failures
    return runs, lat, failures


def items_per_s(runs: list) -> float:
    return sum(c.items for c, _ in runs) / sum(dt for _, dt in runs)


def latency_ms(per_chunk: list, q: int) -> float:
    """The q-th percentile of each chunk's probe latencies, averaged over chunks.

    Averaging per-chunk percentiles, rather than pooling the samples, keeps
    the figure smooth when the machine's speed shifts during a run.
    """
    per_chunk = [lat for lat in per_chunk if len(lat) > 1]
    if not per_chunk:
        return float("nan")
    return statistics.fmean(
        statistics.quantiles([x * 1000.0 for x in lat], n=100)[q - 1] for lat in per_chunk
    )


def check_chunks(runs: list, failures: list) -> None:
    """Identical chunks must give identical outputs."""
    first = next((c.digest for c, _ in runs if not c.failures), None)
    for i, (c, _) in enumerate(runs):
        failures += [f"chunk {i}: {f}" for f in c.failures]
        if not c.failures and c.digest != first:
            failures.append(f"chunk {i}: outputs differ from chunk 0 on identical inputs")


def check_reference(name: str, value: float, tiny: bool, failures: list) -> str:
    ref = REFERENCE.get(name)
    if tiny or ref is None:
        return "no reference at this size"
    lo, hi = ref["result_emd"] * (1 - ref["rel_tol"]), ref["result_emd"] * (1 + ref["rel_tol"])
    verdict = f"reference {ref['result_emd']:.4f} +/- {ref['rel_tol']:.0%}"
    if not lo <= value <= hi:
        failures.append(f"result_emd {value:.6f} outside [{lo:.6f}, {hi:.6f}] ({verdict})")
        return verdict + ": FAIL"
    return verdict + ": ok"


def segments(w, sizes, seconds: float, setups: list):
    """Set the workload up `sizes.setup_repeats` times, appending each
    set-up's seconds to `setups`; after each, yield the timed seconds due.

    Spreading the timed chunks between the set-ups widens the window of
    time a run samples, so a shift in the machine's speed moves it less.
    """
    for _ in range(sizes.setup_repeats):
        gc.collect()
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
        yield seconds / sizes.setup_repeats


def measure(w, args, sizes, setups: list, tracing) -> tuple:
    """Untraced chunks; on scan-complete-score each is followed by the
    latency probe.

    Returns (runs, end-to-end metrics, failures, per-chunk probe latencies).
    """
    probe = hasattr(w, "probe")
    runs, lat, failures = [], [], []
    for share in segments(w, sizes, args.seconds, setups):
        part = timed_chunks(w, share, probe=probe)
        runs += part[0]
        lat += part[1]
        failures += part[2]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": items_per_s(runs), "unit": "1/s"},
        "peak_rss_mb": {"value": tracing.rss_hwm_mb(), "unit": "MB"},
        "result_emd": {"value": runs[-1][0].result_emd, "unit": "emd"},
    }
    # Printed, not in the result: BENCHMARK.json lists only metrics that every
    # workload reports.
    latency = {f"complete_ms.p{q}": latency_ms(lat, q) for q in (50, 90)} if probe else {}
    for name, m in metrics.items():
        print(f"{name:18s} {m['value']:14.6f} {m['unit']}")
    for name, value in latency.items():
        print(f"{name:18s} {value:14.6f} ms")
    print(f"setup_s over {len(setups)} set-ups: {[round(s, 4) for s in setups]}")
    q = quartiles([c.items / dt for c, dt in runs])
    print(f"items_per_s over {len(runs)} chunks: per-chunk quartiles {[round(x, 3) for x in q]}")
    if probe:
        print(f"complete_ms over {len(lat)} chunks of {sizes.probe} calls")
    return runs, metrics, failures, lat


def measure_traced(w, args, sizes, setups: list, tracing) -> tuple:
    """Traced and untraced chunks, alternating so that drift over the run
    cannot pass for tracing overhead.

    Returns (runs, per-layer metrics, failures, metrics absent and why).
    """
    tr = tracing.Tracer()
    traced, untraced = [], []
    hwm_setup = None
    for share in segments(w, sizes, args.seconds, setups):
        if hwm_setup is None:
            hwm_setup = tracing.rss_hwm_mb()
        start = time.perf_counter()
        while True:
            tr.install()
            try:
                traced += timed_chunks(w, 0, tr)[0]
            finally:
                tr.uninstall()
            untraced += timed_chunks(w, 0)[0]
            if time.perf_counter() - start >= share:
                break
    stats = tr.chunk_stats()
    run_values = {
        "mem.rss_hwm_mb.setup": hwm_setup,
        "trace.overhead_ratio": items_per_s(untraced) / items_per_s(traced),
        "trace.uncovered_share": statistics.median(s.uncovered / s.dur for s in stats),
    }
    run_values.update(
        (f"mem.rss_hwm_mb.{k}", v) for k, v in tr.hwm_after.items() if k in tracing.TOP_SPANS
    )
    values, absent, failures = tracing.layer_metrics(stats, run_values)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tr.dump(spans_path)
    print(f"{'span':44s} {'total_s':>10s} {'self_s':>10s} {'calls':>8s}  (median per chunk)")
    for name, total, self_s, calls in tracing.span_table(stats):
        print(f"{name:44s} {total:10.5f} {self_s:10.5f} {calls:8.0f}")
    print(f"spans: {len(tr.spans)} written to {spans_path}")
    for why in sorted(set(absent.values())):
        print(f"absent, {why}: {', '.join(n for n, r in absent.items() if r == why)}")
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in tracing.METRICS}
    return traced + untraced, metrics, failures, absent


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "scanmend", "__init__.py")):
        print(f"perfbench: no scanmend sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import scanmend

    if not os.path.abspath(scanmend.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported scanmend from {scanmend.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "machine": machine()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(info["machine"]))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
        setups = []
        if args.trace:
            runs, metrics, failures, info["absent"] = measure_traced(
                w, args, sizes, setups, tracing
            )
            probes = 0
        else:
            runs, metrics, failures, info["probe_seconds"] = measure(w, args, sizes, setups, tracing)
            probes = sizes.probe * len(info["probe_seconds"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_chunks(runs, failures)
    emd = runs[-1][0].result_emd
    verdict = check_reference(args.workload, emd, args.tiny, failures)
    attempted = sum(c.attempted for c, _ in runs) + probes + 1  # + the reference check
    failed = len(failures)
    print(f"{'fail_ratio':18s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    print(f"result_emd {emd:.6f}: {verdict}")
    for f in failures:
        print(f"FAILED: {f}")
    info.update(setups=setups, chunk_seconds=[dt for _, dt in runs], failures=failures)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump({**info, "metrics": metrics}, f, indent=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; no reference check")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
