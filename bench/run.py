"""alphaprobe benchmark: closed-loop workloads against the checkout's src/.

Run from the repository root:

    python3 bench/run.py --workload mc-tomography --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, one after another
    python3 bench/run.py --smoke         # a few ops each, checks every metric
    python3 bench/run.py --repeat 10     # median and quartiles over seeds

One client, one op at a time (a closed loop), single-threaded BLAS. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the same seed runs once untraced and once under the interposition
tracer, and the last line carries the per-layer metrics. bench/README.md
defines every metric and the layer predictions.
"""
import os
import sys

# Pin the BLAS/OpenMP pools before numpy loads; every child inherits this,
# so the benchmark keeps to one busy core of the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("mc-tomography", "random-scenarios", "cli-cold")
SETUP_RUNS = 5  # set-ups per run; setup_s is their median
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds spent on the untraced reference pass
ORACLE_SAMPLES = 4  # ops per run re-derived through the scipy oracle
DIGEST_OPS = 8  # ops folded into the output digest
# an op's speed factor is the median of the references taken from
# SPEED_WINDOW_S before it started up to the first one after it ended: about
# 30 for a random-scenarios op, 3 for cli-cold and 2 for mc-tomography. The
# speed was seen to drift within seconds, so a window spanning many long ops
# would lag behind it.
SPEED_WINDOW_S = 1.0
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "linalg.density_matrix.calls": "count",
    "linalg.calls": "count",
    "linalg.self_ms": "ms",
    "linalg.share": "ratio",
    "fidelity.calls": "count",
    "fidelity.alpha_points": "count",
    "fidelity.self_ms": "ms",
    "fidelity.ns_per_alpha_point": "ns",
    "fidelity.share": "ratio",
    "bounds.calls": "count",
    "bounds.records": "count",
    "bounds.self_ms": "ms",
    "bounds.informative_ratio": "ratio",
    "bounds.share": "ratio",
    "tomography.replicas": "count",
    "tomography.reconstructions": "count",
    "tomography.self_ms": "ms",
    "tomography.informative_ratio": "ratio",
    "tomography.repaired_ratio": "ratio",
    "tomography.share": "ratio",
    "spectra.calls": "count",
    "spectra.self_ms": "ms",
    "spectra.share": "ratio",
    "channel.calls": "count",
    "channel.jones_evals": "count",
    "channel.self_ms": "ms",
    "channel.ns_per_jones_eval": "ns",
    "channel.share": "ratio",
    "scenario.parse_ms": "ms",
    "scenario.self_ms": "ms",
    "scenario.bytes_written": "bytes",
    "scenario.share": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class LayoutError(RuntimeError):
    """The checkout under test has no importable src/alphaprobe."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_package() -> int:
    """Import numpy and alphaprobe from the checkout; returns the import time (ns)."""
    if not (SRC / "alphaprobe" / "__init__.py").is_file():
        raise LayoutError(f"no package at {SRC / 'alphaprobe'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401
    import alphaprobe
    import alphaprobe.cli  # noqa: F401

    elapsed = time.perf_counter_ns() - t0
    location = Path(alphaprobe.__file__).resolve()
    if ROOT not in location.parents:
        raise LayoutError(f"alphaprobe resolved to {location}, outside the checkout {ROOT}")
    return elapsed


def make_workload(name: str, seed: int, workdir: str):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls.in_process:
        return cls(seed, workdir)
    return cls(seed, workdir, child_env(), str(BENCH_DIR))


def environment() -> dict:
    import importlib.metadata

    import alphaprobe
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphaprobe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "alphaprobe_file": str(Path(alphaprobe.__file__).resolve().relative_to(ROOT)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


@dataclass
class Op:
    index: int
    inp: object
    latency_ns: int
    label: str
    value: object = None
    problems: list = field(default_factory=list)
    keep: object = None
    child: object = None
    child_timing: dict | None = None
    speed: float = 1.0  # nominal / measured time of the references around the op
    start_ns: int = 0

    @property
    def ms(self) -> float:
        """Latency at the reference machine speed."""
        return self.latency_ns / 1e6 * self.speed


def closed_loop(wl, workdir: str, seconds: float | None = None, count: int | None = None,
                tracer=None, paired: bool = False) -> list:
    """One client: each op starts when the previous one and its check are done.

    With `paired`, the workload's speed reference runs just before each op
    and once after the last, and each op is scaled by the references around it.
    """
    ops = []
    ref_ns: list[int] = []
    ref_speed: list[float] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while (count is None or i < count) and (
        deadline is None or i == 0 or time.perf_counter() < deadline
    ):
        inp = wl.make_input(i)
        op_dir = os.path.join(workdir, f"op{i}")
        trace_path = None
        if tracer is not None:
            tracer.op = i
            if not wl.in_process:
                trace_path = os.path.join(workdir, f"trace{i}.json")
        error = None
        if paired:
            ref_speed.append(wl.reference())
            ref_ns.append(time.perf_counter_ns())
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(inp, op_dir, trace_path)
        except Exception as exc:  # a failed op is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.op = -1  # checks below are not part of the op
        op = Op(i, inp, latency, wl.label(inp), child=None if wl.in_process else out,
                start_ns=t0)
        if error is not None:
            op.problems.append(error)
        else:
            try:
                op.value, op.problems, op.keep = wl.check(inp, out, op_dir)
            except Exception as exc:  # a check that cannot run fails the op
                op.problems.append(f"check raised {type(exc).__name__}: {exc}")
        if trace_path is not None:
            if os.path.exists(trace_path):
                op.child_timing = tracer.merge(trace_path, i)["timing_ns"]
                os.remove(trace_path)
            else:
                op.problems.append("traced child wrote no trace")
        shutil.rmtree(op_dir, ignore_errors=True)
        ops.append(op)
        i += 1
    if paired:
        ref_speed.append(wl.reference())
        ref_ns.append(time.perf_counter_ns())
        for op in ops:
            lo = bisect.bisect_left(ref_ns, op.start_ns - int(SPEED_WINDOW_S * 1e9))
            hi = bisect.bisect_right(ref_ns, op.start_ns + op.latency_ns)
            op.speed = statistics.median(ref_speed[lo:hi + 1])
    return ops


def class_latencies(ops: list, scaled: bool = True) -> tuple:
    """Stall-robust throughput and tail from per-input-class median latencies.

    Ops are grouped by their input class (plate count, integration time or
    subcommand). Throughput is the rate at each class's median latency,
    weighted by the class's share of ops; the tail is the median latency of
    the slowest class. Scheduler stalls hit a few percent to a quarter of the
    ops of a run, so sums and high percentiles moved by up to 25% between runs
    where medians stayed within 3%. Returns (ops_per_s, tail_ms, tail_class).
    """
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.label, []).append(op.ms if scaled else op.latency_ns / 1e6)
    medians = {label: statistics.median(lat) for label, lat in groups.items()}
    mean_ms = sum(len(groups[label]) * m for label, m in medians.items()) / len(ops)
    slowest = max(medians, key=medians.get)
    return 1e3 / mean_ms, medians[slowest], slowest


def run_oracle(wl, ops: list) -> list:
    """Re-derive b_inf for evenly spaced ops; problems land on the op itself."""
    candidates = [op for op in ops if op.keep is not None and not op.problems]
    if not candidates:
        return []
    step = max(1, len(candidates) // ORACLE_SAMPLES)
    sampled = candidates[::step][:ORACLE_SAMPLES]
    for op in sampled:
        op.problems += [f"oracle: {p}" for p in wl.oracle(op.inp, op.keep)]
    return [op.index for op in sampled]


def digest(ops: list) -> str:
    values = [op.value for op in ops[:DIGEST_OPS]]
    return hashlib.sha256(json.dumps(values, sort_keys=True, default=repr).encode()).hexdigest()[:16]


def input_shares(name: str, ops: list) -> dict:
    """Share of ops, and their median latency in ms, per input property."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.label, []).append(op.ms)
    shares = {
        label: {"share": round(len(lat) / len(ops), 4),
                "p50_ms": round(statistics.median(lat), 3)}
        for label, lat in sorted(groups.items())
    }
    report = {"by_" + {"mc-tomography": "integration_time",
                       "random-scenarios": "plate_count",
                       "cli-cold": "subcommand"}[name]: shares}
    if name == "random-scenarios":
        report["informative_share"] = round(
            sum(op.value is not None for op in ops) / len(ops), 4)
        report["probe_share"] = {"plus": round(sum(op.index % 2 == 0 for op in ops) / len(ops), 4)}
    return report


def setup_probe(args) -> int:
    """Child mode: one full set-up (imports, inputs, one untimed op)."""
    load_package()
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, str(workdir))
        ops = closed_loop(wl, str(workdir), count=1)
        end = time.monotonic_ns()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ops[0].problems:
        print(f"set-up op failed: {ops[0].problems}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_end_ns": end}))
    return 0


def measure_setup(name: str, seed: int) -> list:
    """Set up SETUP_RUNS times in fresh processes: (raw, scaled) seconds to warm.

    Each set-up is paired with a cold-start reference run just before it.
    """
    import speedref
    from child import run_child

    samples = []
    for k in range(SETUP_RUNS):
        speed = speedref.cold_start(child_env())
        probe = run_child(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed + k)],
            child_env(), CHILD_TIMEOUT_S, stderr=None, capture=True, cwd=str(ROOT),
        )
        if probe.code != 0:
            raise RuntimeError(f"set-up probe exited {probe.code}")
        end = json.loads(probe.stdout.decode().strip().splitlines()[-1])["setup_end_ns"]
        setup_s = (end - probe.spawn_ns) / 1e9
        samples.append((setup_s, setup_s * speed))
    return samples


def layer_metrics(tracer, ops: list, import_ns: int, overhead: float) -> dict:
    n = len(ops)
    wall_ns = sum(op.latency_ns for op in ops)
    totals = tracer.layer_totals()
    calls, self_ns, by_name = totals["calls"], totals["self_ns"], totals["by_name"]
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("linalg", "fidelity", "bounds", "tomography", "spectra", "channel",
                  "scenario"):
        m[f"{layer}.self_ms"] = self_ns[layer] / n / 1e6
        m[f"{layer}.share"] = ratio(self_ns[layer], wall_ns)
        if f"{layer}.calls" in PER_LAYER:
            m[f"{layer}.calls"] = calls[layer] / n
    m["linalg.density_matrix.calls"] = by_name.get("linalg.DensityMatrix", [0, 0])[0] / n
    m["fidelity.alpha_points"] = c["fidelity.alpha_points"] / n
    m["fidelity.ns_per_alpha_point"] = ratio(self_ns["fidelity"], c["fidelity.alpha_points"])
    m["bounds.records"] = c["bounds.records"] / n
    m["bounds.informative_ratio"] = ratio(c["bounds.informative"], c["bounds.records"])
    m["tomography.replicas"] = c["tomography.replicas"] / n
    m["tomography.reconstructions"] = by_name.get("tomography.reconstruct", [0, 0])[0] / n
    m["tomography.informative_ratio"] = ratio(c["tomography.informative"],
                                              c["tomography.replicas"])
    m["tomography.repaired_ratio"] = ratio(c["tomography.repaired"],
                                           c["tomography.bloch_vectors"])
    m["channel.jones_evals"] = c["channel.jones_evals"] / n
    m["channel.ns_per_jones_eval"] = ratio(self_ns["channel"], c["channel.jones_evals"])
    m["scenario.parse_ms"] = by_name.get("scenario.parse_scenario", [0, 0])[1] / n / 1e6
    m["scenario.bytes_written"] = c["scenario.bytes_written"] / n
    children = [op for op in ops if op.child_timing is not None]
    if children:
        m["cli.interpreter_ms"] = statistics.fmean(
            (op.child_timing["started"] - op.child.spawn_ns) / 1e6 for op in children)
        m["cli.import_ms"] = statistics.fmean(op.child_timing["import"] / 1e6 for op in children)
        m["cli.command_ms"] = statistics.fmean(op.child_timing["command"] / 1e6 for op in children)
    else:
        m["cli.interpreter_ms"] = 0.0
        m["cli.import_ms"] = import_ns / 1e6
        m["cli.command_ms"] = 0.0
    m["trace.overhead_ratio"] = overhead
    return {name: m[name] for name in PER_LAYER}


def print_layers(tracer, ops: list) -> None:
    totals = tracer.layer_totals()
    n = len(ops)
    wall_ns = sum(op.latency_ns for op in ops)
    print(f"  {'layer':<12}{'calls/op':>12}{'self ms/op':>14}{'share':>9}")
    for layer in sorted(set(tracer.layers) | set(totals["calls"])):
        print(f"  {layer:<12}{totals['calls'][layer] / n:>12.1f}"
              f"{totals['self_ns'][layer] / n / 1e6:>14.3f}"
              f"{totals['self_ns'][layer] / wall_ns:>9.3f}")


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']:<6} {notes.get(name, '')}")


def measure(args) -> int:
    try:
        import_ns = load_package()
    except LayoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, str(workdir))
        warm = closed_loop(wl, str(workdir), count=1)[0]
        global_problems = [f"warm-up op: {p}" for p in warm.problems]
        budget = args.seconds * (TRACE_UNTRACED_SHARE if args.trace else 1.0)
        ops = closed_loop(wl, str(workdir), seconds=budget, paired=not args.trace)
        if wl.in_process:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kib = max(op.child.maxrss_kib for op in ops if op.child is not None)

        traced = []
        if args.trace:
            tracer = Tracer()
            if wl.in_process:
                tracer.install()
                if tracer.missing_hooks:
                    print(f"counters left at zero, functions not found: {tracer.missing_hooks}")
            try:
                traced = closed_loop(wl, str(workdir), count=len(ops), tracer=tracer)
            finally:
                tracer.uninstall()
            for plain, op in zip(ops, traced):
                if op.value != plain.value:
                    op.problems.append("tracing changed the op's result")
            tracer.write_spans(str(OUT / f"spans-{args.workload}.jsonl"))

        sampled = run_oracle(wl, ops)
        if hasattr(wl, "oracle_exact"):
            global_problems += wl.oracle_exact()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = ops + traced
    failed = [op for op in all_ops if op.problems]
    for op in failed[:5]:
        print(f"bench: op {op.index} failed: {'; '.join(op.problems)}", file=sys.stderr)
    for problem in global_problems:
        print(f"bench: {problem}", file=sys.stderr)

    n = len(ops)
    lat_ms = sorted(op.ms for op in ops)
    raw_ms = sorted(op.latency_ns / 1e6 for op in ops)
    print(f"ops {n}  failed_ops_ratio {len(failed) / len(all_ops):.6g} "
          f"({len(failed)}/{len(all_ops)})  oracle-checked ops {sampled}")
    print("inputs " + json.dumps(input_shares(args.workload, ops), sort_keys=True))
    print(f"digest {digest(ops)} over the first {min(n, DIGEST_OPS)} ops")

    if args.trace:
        overhead = sum(op.latency_ns for op in traced) / sum(op.latency_ns for op in ops)
        values = layer_metrics(tracer, traced, import_ns, overhead)
        print_layers(tracer, traced)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        notes = {k: f"per op, n={len(traced)} traced ops" for k in values}
        notes["trace.overhead_ratio"] = f"{len(traced)} traced / {n} untraced ops, same inputs"
    else:
        raw_setup = [raw for raw, _ in setup_samples]
        throughput, tail, tail_class = class_latencies(ops)
        raw_throughput, raw_tail, _ = class_latencies(ops, scaled=False)
        n_classes = len({op.label for op in ops})
        n_tail = sum(op.label == tail_class for op in ops)
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_samples),
            "throughput_ops_per_s": throughput,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail,
            "peak_rss_mb": peak_kib / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        raw = {
            "setup_s": statistics.median(raw_setup),
            "throughput_ops_per_s": raw_throughput,
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_tail_ms": raw_tail,
        }
        print("raw " + json.dumps(raw))
        speeds = [op.speed for op in ops]
        print(f"reference speed factor: median {statistics.median(speeds):.4f}, "
              f"range {min(speeds):.4f}..{max(speeds):.4f} over {n} ops "
              f"({'in-process kernel' if wl.in_process else 'cold numpy import'})")
        notes = {
            "setup_s": f"median of {len(setup_samples)} set-ups; raw "
                       f"{[round(s, 3) for s in raw_setup]}",
            "throughput_ops_per_s": f"n={n} ops in {n_classes} classes, one client; raw "
                                    f"{raw['throughput_ops_per_s']:.4g}",
            "latency_p50_ms": f"n={n}; raw {raw['latency_p50_ms']:.4g}",
            "latency_tail_ms": f"p50 of '{tail_class}', n={n_tail}; raw "
                               f"{raw['latency_tail_ms']:.4g}",
            "peak_rss_mb": "benchmark process" if wl.in_process
                           else f"largest of {n} CLI children",
        }
    print_metrics(metrics, notes)
    result = {
        "correct": not failed and not global_problems,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_self(argv: list) -> dict:
    """Run this script as a child; returns its stdout and parsed result line."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py")] + argv,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30,
                          cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return {"stdout": proc.stdout, "result": json.loads(proc.stdout.strip().splitlines()[-1])}


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        out = run_self(["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)])
        print(out["stdout"], end="")
        results[name] = out["result"]
    print(json.dumps({"workloads": results}))
    return 0


def declared_metrics() -> tuple:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}, list(END_TO_END), list(PER_LAYER)
    payload = json.loads(spec.read_text())
    bounds = {m["name"]: m["bound"] for m in payload["end_to_end"]}
    return bounds, [m["name"] for m in payload["end_to_end"]], \
        [m["name"] for m in payload["per_layer"]]


def smoke(args) -> int:
    """Every workload, untraced and traced, for a couple of seconds."""
    _, e2e, layers = declared_metrics()
    problems = []
    if sorted(e2e) != sorted(END_TO_END) or sorted(layers) != sorted(PER_LAYER):
        problems.append("BENCHMARK.json metric names differ from bench/run.py")
    for name in WORKLOAD_NAMES:
        for trace, expected in ((0, e2e), (1, layers)):
            result = run_self(["--workload", name, "--seed", str(args.seed),
                                "--seconds", "2", "--trace", str(trace)])["result"]
            metrics = result["metrics"]
            bad = [k for k in expected if k not in metrics
                   or not math.isfinite(metrics[k]["value"])]
            extra = sorted(set(metrics) - set(expected))
            verdict = "PASS"
            if bad or extra or not result["correct"] or result["failed"] \
                    or result["attempted"] < 1:
                verdict = "FAIL"
                problems.append(f"{name} trace {trace}: missing/non-finite {bad}, extra "
                                f"{extra}, correct {result['correct']}, "
                                f"failed {result['failed']}/{result['attempted']}")
            print(f"smoke {name:<17} trace {trace}  {verdict}  "
                  f"{len(metrics)} metrics, {result['attempted']} ops")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def repeat(args) -> int:
    """Runs per workload on consecutive seeds; median and quartiles per metric."""
    bounds, _, _ = declared_metrics()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    summary = {}
    for name in names:
        series: dict = {}
        raw_series: dict = {}
        failed = 0
        for k in range(args.repeat):
            out = run_self(["--workload", name, "--seed", str(args.seed + k),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
            result = out["result"]
            failed += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                series.setdefault(metric, []).append(entry["value"])
            for line in out["stdout"].splitlines():
                if line.startswith("raw "):
                    for metric, value in json.loads(line[4:]).items():
                        raw_series.setdefault(metric, []).append(value)
        print(f"{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"failed ops or incorrect runs {failed}")
        print(f"  {'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}"
              f"  (unscaled spread)")
        summary[name] = {}
        for metric, values in series.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                flag = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            raw_note = ""
            if len(raw_series.get(metric, [])) == len(values):
                r1, rmed, r3 = statistics.quantiles(raw_series[metric], n=4)
                raw_note = f"  ({(r3 - r1) / rmed:.4f})"
            print(f"  {metric:<30}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                  f"{'' if bound is None else bound:>8} {flag}{raw_note}")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "values": values}
    print(json.dumps({"repeat": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check of every metric")
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload on consecutive seeds, with quartiles")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "alphaprobe" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'alphaprobe'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.smoke:
        return smoke(args)
    if args.repeat:
        return repeat(args)
    if args.workload is None:
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
