"""The quadrect benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

Each operation starts when the previous one returns.  Times are scaled to a
nominal machine speed measured between operations (see calibrate.py).
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it first runs half the time untraced, then replays the same
rounds with spans around every layer call and prints the per-layer
metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Everything the
run writes goes under ``.bench_out/`` in the repository root.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("cli_mix", "witness_search", "verify_large")
SETUP_PROBES = 2  # extra fresh-process set-ups; setup_s is the median of 1 + this
TAIL_ABOVE = 10
SEGMENT_S = 0.05  # longest stretch of operations between two calibration kernels


def _args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "quadrect" / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import quadrect

    if Path(quadrect.__file__).resolve().parent != (src / "quadrect").resolve():
        raise SystemExit(f"error: imported quadrect from {quadrect.__file__}, not from {src}")


def _commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": _commit(),
    }


class Phase:
    """Outcome of running whole rounds of one workload.  ``latencies`` and
    ``busy`` are scaled to nominal machine speed (see calibrate.py)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.scales: list[float] = []
        self.kinds: list[str] = []
        self.stats: Counter = Counter()
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.busy = 0.0
        self.raw_busy = 0.0
        self.digest = hashlib.sha256()


def _run_op(op: "workloads.Op", phase: Phase, digest: bool, tracer: "tracing.Tracer | None" = None) -> float:
    """Time one operation, then check its output; returns the raw seconds."""
    phase.attempted += 1
    if tracer is not None:
        tracer.begin(len(phase.kinds))
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an unexpected exception is a failed operation
        result, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    if error is None:
        try:
            blob, stats = op.check(result)
        except Exception as exc:  # oracle.CheckFailed, or output too broken to read
            error = exc
    if error is not None:
        phase.failures.append(f"{op.kind}: {type(error).__name__}: {error}")
        blob, stats = f"FAILED|{op.kind}".encode(), {}
    phase.stats.update(stats)
    if digest:
        phase.digest.update(len(blob).to_bytes(8, "little") + blob)
    phase.kinds.append(op.kind)
    return elapsed


def run_phase(wl: "workloads.Workload", seconds: float, min_rounds: int, max_rounds: int | None = None,
              first: list | None = None, tracer: "tracing.Tracer | None" = None) -> Phase:
    """Run whole rounds until the scaled busy time is nearest ``seconds``, with
    at least ``min_rounds`` and at most ``max_rounds``.  Input generation and
    output checks run between operations and are not timed.  The calibration
    kernel runs whenever SEGMENT_S of operations have passed and at the end
    of each round; the operations in between are scaled by the mean of the
    two kernel times around them."""
    phase = Phase()
    pending = first
    kernel = calibrate.kernel_seconds()
    with wl.capture():
        while True:
            k = phase.rounds
            if k == max_rounds:
                break
            if k >= min_rounds and phase.busy + phase.busy / k / 2 >= seconds:
                break
            ops = pending if pending is not None else wl.round(k)
            pending = None
            segment: list[float] = []
            for i, op in enumerate(ops):
                segment.append(_run_op(op, phase, k < wl.digest_rounds, tracer))
                if sum(segment) >= SEGMENT_S or i == len(ops) - 1:
                    after = calibrate.kernel_seconds()
                    factor = calibrate.scale(kernel, after)
                    kernel = after
                    for raw in segment:
                        phase.raw.append(raw)
                        phase.scales.append(factor)
                        phase.latencies.append(raw * factor)
                        phase.raw_busy += raw
                        phase.busy += raw * factor
                    segment = []
            phase.rounds += 1
    return phase


def set_up(wl: "workloads.Workload") -> tuple[list, Phase]:
    """Warm-up operations (checked, not timed) and the first round's inputs."""
    warm = Phase()
    with wl.capture():
        for op in wl.warmup():
            _run_op(op, warm, False)
    return wl.round(0), warm


def _setup_probes(args: argparse.Namespace) -> list[float]:
    """Set up again in fresh processes, one at a time.  A probe's warm-up
    failures are not counted: this process runs the same warm-up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_ABOVE samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_ABOVE, 1)  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n


def _end_to_end(args: argparse.Namespace, wl: "workloads.Workload", first: list,
                setup_s: float) -> tuple[Phase, dict, dict]:
    setups = [setup_s] + _setup_probes(args)
    phase = run_phase(wl, args.seconds, max(wl.min_rounds, wl.digest_rounds), None, first)
    lat = phase.latencies
    tail, pct, n = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(lat) / phase.busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),  # KiB on Linux
    }
    notes = {
        "raw_throughput_ops_s": len(lat) / phase.raw_busy,
        "raw_latency_p50_ms": statistics.median(phase.raw) * 1e3,
        "raw_latency_tail_ms": _tail(phase.raw)[0] * 1e3,
        "median_scale": statistics.median(phase.scales),
        "setup_samples_s": setups,
        "tail_percentile": pct,
        "tail_samples": n,
    }
    return phase, metrics, notes


def _traced(args: argparse.Namespace, wl: "workloads.Workload", first: list) -> tuple[Phase, dict, dict]:
    """Half the time untraced, then the same rounds again with spans."""
    import fieldprobe
    import tracing

    phase = run_phase(wl, args.seconds / 2, wl.digest_rounds, None, first)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, 0.0, phase.rounds, phase.rounds, None, tracer)
    finally:
        tracer.uninstall()
    phase.failures += traced.failures
    phase.attempted += traced.attempted
    if traced.digest.hexdigest() != phase.digest.hexdigest():
        phase.failures.append("traced replay produced different outputs from the untraced run")
    metrics = tracing.layer_metrics(tracer.spans, traced.kinds, traced.scales, traced.stats)
    ops = len(phase.latencies)
    untraced_tput, traced_tput = ops / phase.busy, ops / traced.busy
    metrics.update({
        "trace.op_s": (phase.busy / ops, "s/op"),
        "trace.untraced_ops_s": (untraced_tput, "1/s"),
        "trace.traced_ops_s": (traced_tput, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced_tput - traced_tput) / untraced_tput, "%"),
    })
    p, elements = wl.operands()
    for op, us in fieldprobe.measure(p, elements, random.Random(f"probe:{args.seed}")).items():
        metrics[f"exactfield.{op}_us"] = (us, "us")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "op": op, "kind": traced.kinds[op]}) + "\n")
    return phase, metrics, {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def _report(args: argparse.Namespace, wl: "workloads.Workload", warm: Phase, phase: Phase,
            metrics: dict, notes: dict) -> None:
    failures = warm.failures + phase.failures
    attempted = warm.attempted + phase.attempted
    env = _environment(args.seed)
    digest = phase.digest.hexdigest()
    kinds = Counter(phase.kinds)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    print(f"# rounds={phase.rounds} ops={len(phase.latencies)} busy_s={phase.busy:.3f} "
          f"failed={len(failures)} error_rate={len(failures) / attempted:.6f}")
    print("# mix " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    if "tail_percentile" in notes:
        print(f"# latency_tail_ms is p{notes['tail_percentile']:.2f} of {notes['tail_samples']} samples "
              f"({TAIL_ABOVE} above it)")
    print(f"# digest sha256:{digest} (outputs of the first {wl.digest_rounds} rounds)")
    for msg in failures[:20]:
        print(f"# FAILED {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(elapsed * 1e3)
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds, env=env,
                  digest=digest, rounds=phase.rounds, mix=dict(kinds), notes=notes, failures=failures,
                  median_ms_by_kind={k: statistics.median(v) for k, v in sorted(by_kind.items())})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))


def main(argv: list[str]) -> int:
    args = _args(argv)
    _import_library()
    import workloads

    tmp = OUT / f"tmp-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
    try:
        first, warm = set_up(wl)
        setup_s = time.perf_counter() - _T0
        kernel = calibrate.kernel_seconds()
        setup_s *= calibrate.scale(kernel, kernel)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace == 0:
            phase, metrics, notes = _end_to_end(args, wl, first, setup_s)
        else:
            phase, metrics, notes = _traced(args, wl, first)
        _report(args, wl, warm, phase, metrics, notes)
        return 0
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
