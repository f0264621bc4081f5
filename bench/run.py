"""trinedisc benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the library: set-up time, throughput, median time per work item (for
``query`` the per-query latency), success rate and peak memory.  Times are scaled by the host speed measured
between operations, and for ``sweep`` also during them (see
``hostspeed.py``); the report shows the factors.  ``--trace 1`` runs each of the run's passes
twice, plain and then with every public function of each layer wrapped
(see ``tracing.py``), checks that both give byte-identical outputs, and
reports per-layer calls, self times and errors, computed operation
counts, import times and the tracing overhead.

The library is imported from ``src/`` of the checkout; the benchmark
exits with status 2 and no result when that is missing.  Every answer is
checked by ``checks.py``, whose planted-fault self-test runs first on
every invocation.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hostspeed import HostSpeed
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_SPAWNS = 11
IMPORTTIME_SPAWNS = 3
#: Modules whose import time is reported; numpy cumulative, the rest self.
IMPORT_MODULES = ("numpy", "trinedisc") + tuple(
    f"trinedisc.{m}" for m in ("errors",) + LAYERS
)
#: Per-layer functions reported by name, beyond the per-layer totals.
NAMED_SPANS = (
    ("trine.canonicalize_priors", ("self_s",)),
    ("trine.transform_to_original", ("calls", "self_s")),
    ("trine.trine_projectors", ("calls",)),
    ("qubit.invert_qubit_density", ("self_s", "errors")),
    ("min_error.optimal_measurement", ("calls", "self_s", "errors")),
    ("min_error.check_helstrom", ("self_s",)),
    ("min_error.three_element_measurement", ("self_s",)),
    ("min_error.gamma_three_element", ("calls",)),
    ("max_confidence.confidence_report", ("self_s", "errors")),
    ("max_confidence.mc_povm", ("self_s",)),
    ("max_confidence.min_error_confidence", ("self_s",)),
    ("oracle.brute_force_min_error", ("calls", "self_s")),
    ("oracle.brute_force_max_confidence", ("self_s",)),
    ("simulate.estimate_success", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
#: Closed-form pieces of ``min_error`` that the sweeps evaluate per row.
CLOSED_FORM = (
    "boundary_determinant",
    "p_correct_two_element",
    "p_correct_three_element",
    "theta_two_element",
    "critical_delta",
)
UNITS = {"calls": "count", "errors": "count", "self_s": "s"}


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
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
    return "unknown (not a git checkout)"


def machine(td) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trinedisc": td.__version__,
        "commit": git_commit(),
    }


def spawn(args: list[str], code: str) -> tuple[str, str]:
    """Standard output and error of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    cmd = [sys.executable, *args, "-c", code]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"fresh interpreter failed: {proc.stderr.strip()}", 1)
    return proc.stdout, proc.stderr


def setup_seconds() -> float:
    """Median scaled time of fresh interpreters importing the CLI.

    Each interpreter times the import, then the ``small`` kernel, so the
    scale comes from the same process at the same moment.
    """
    code = (
        "from time import perf_counter as now; t = now(); import trinedisc.cli; "
        "t = now() - t; import hostspeed; print(hostspeed.scale(t))"
    )
    return statistics.median(float(spawn([], code)[0]) for _ in range(SETUP_SPAWNS))


def import_seconds() -> dict[str, float]:
    """Median scaled ``-X importtime`` figures: numpy cumulative, trinedisc self."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)$")
    code = "import trinedisc.cli, hostspeed; print(hostspeed.scale(1.0))"
    for _ in range(IMPORTTIME_SPAWNS):
        stdout, stderr = spawn(["-X", "importtime"], code)
        factor = float(stdout)
        for line in stderr.splitlines():
            m = pattern.match(line)
            if m and m.group(3) in samples:
                us = int(m.group(2) if m.group(3) == "numpy" else m.group(1))
                samples[m.group(3)].append(us * 1e-6 * factor)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def keyed(passes: list[list]) -> list[list]:
    """Each operation paired with a key that names it within the run."""
    return [[((p, j), op) for j, op in enumerate(ops)] for p, ops in enumerate(passes)]


def run_all(workload, ops, tally: Tally, speed: HostSpeed, tracer: Tracer | None = None):
    """Run keyed ``ops`` in order, scaling each stretch of work by the host speed."""
    step = workload.calibrate_every
    for i in range(0, len(ops), step):
        outcomes = []
        for key, op in ops[i : i + step]:
            if tracer is None:
                outcome, paused = speed.during(lambda: workload.run(op))
                outcome.seconds -= paused
                outcomes.append((key, outcome))
            else:
                with tracer.operation(workload.name):
                    outcomes.append((key, workload.run(op)))
        factor = speed.factor()
        for key, outcome in outcomes:
            outcome.seconds *= factor
            tally.add(key, outcome)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def item_median(op_seconds: dict, op_items: dict) -> float:
    """Median over work items of their operation's time per item."""
    per_item = sorted((op_seconds[k] / n, n) for k, n in op_items.items() if n)
    half, seen = 0.5 * sum(n for _, n in per_item), 0
    for t, n in per_item:
        seen += n
        if seen >= half:
            return t
    raise ValueError("no successful operation")


def end_to_end(workload, rng, seconds: float) -> tuple[Tally, dict, list[str]]:
    """Closed loop over the run's passes for ``seconds``; times scaled by host speed.

    Every pass runs at least once, so the counts of attempted and failed
    operations are the same however fast the host is.
    """
    setup = setup_seconds()
    speed = HostSpeed(workload.host, workload.sample_period_s)
    run_all(workload, keyed([workload.warmup(rng)])[0], Tally(), speed)
    passes = keyed(workload.passes(rng))
    tally = Tally()
    rates = []  # work items per scaled second, one per pass
    t_end = perf_counter() + seconds
    done = 0
    while done < len(passes) or perf_counter() < t_end:
        items, busy = tally.items, tally.busy_s
        run_all(workload, passes[done % len(passes)], tally, speed)
        rates.append((tally.items - items) / (tally.busy_s - busy))
        done += 1
    lat = tally.latencies
    if not lat:
        fail("no operation succeeded, so latency is undefined", 1)
    if workload.median_over == "pass":
        # many short operations: a median over passes of their rates
        rate = statistics.median(rates)
        p50 = statistics.median(lat)
        rate_how = f"median over {len(rates)} passes ({len(passes)} distinct)"
    else:
        # few long commands, repeated: each one's median time, so that one
        # disturbed execution moves the figures little
        op_s = {k: statistics.median(t) for k, t in tally.op_seconds.items()}
        rate = sum(tally.op_items.values()) / sum(op_s.values())
        p50 = item_median(op_s, tally.op_items)
        rate_how = (f"items over median times of {len(op_s)} distinct operations, "
                    f"{len(rates)} passes")
    error_rate = tally.failed / tally.attempted
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(lat)
    report = [
        f"setup_s              {setup:.4f} s   import of trinedisc.cli, scaled; median of "
        f"{SETUP_SPAWNS} fresh interpreters",
        f"{workload.rate_name:<20} {rate:.6g} 1/s   {rate_how}; "
        f"{tally.items} {workload.item} in {tally.busy_s:.3f} s (scaled) in all",
    ]
    if workload.name == "query":
        p99 = statistics.quantiles(lat, n=100)[98]
        beyond = sum(x > p99 for x in lat)
        report += [
            f"query_p50_us         {p50 * 1e6:.1f} us   n={n} successful executions",
            f"query_p99_us         {p99 * 1e6:.1f} us   n={n}, {beyond} samples beyond p99",
        ]
    else:
        report.append(f"{'time_per_item_p50':<20} {p50 * 1e6:.4g} us   per item ({workload.item}), "
                      f"median over the {sum(tally.op_items.values())} items of the distinct "
                      "successful operations, each at its operation's median time per item")
    report += [
        f"error_rate           {error_rate:.6f}   {tally.failed} of {tally.attempted} "
        f"distinct operations; {tally.executions} executions, {tally.mismatched} repeats "
        "with an output unlike their first",
        f"peak_rss_mb          {rss:.1f} MB",
        f"{workload.host} kernel: {speed.describe()}",
    ]
    metrics = {
        "setup_s": metric(setup, "s"),
        "throughput_per_s": metric(rate, "1/s"),
        "time_per_item_p50_us": metric(p50 * 1e6, "us"),
        "success_rate": metric(1.0 - error_rate, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return tally, metrics, report


def per_layer(workload, rng) -> tuple[Tally, dict, list[str]]:
    imports = import_seconds()
    speed = HostSpeed(workload.host)
    run_all(workload, keyed([workload.warmup(rng)])[0], Tally(), speed)
    inputs = [op for ops in keyed(workload.passes(rng)) for op in ops]
    plain = Tally()
    run_all(workload, inputs, plain, speed)
    mark = len(speed.factors)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Tally()
        run_all(workload, inputs, traced, speed, tracer)
    finally:
        tracer.uninstall()
    # span times get the traced phase's mean host-speed scale
    scale = statistics.fmean(speed.factors[mark:])
    same = plain.digest.digest() == traced.digest.digest()
    if not same:
        traced.wrong += 1
    spans = tracer.summary()

    def total(prefix: str, field: str):
        return sum(s[field] for name, s in spans.items() if name.startswith(prefix))

    metrics = {}
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.calls"] = metric(total(f"{layer}.", "calls"), "count")
        metrics[f"{layer}.self_s"] = metric(scale * total(f"{layer}.", "self_s"), "s")
    for name, fields in NAMED_SPANS:
        for field in fields:
            value = spans.get(name, {}).get(field, 0)
            metrics[f"{name}.{field}"] = metric(
                scale * value if field == "self_s" else value, UNITS[field])
    metrics["min_error.closed_form.self_s"] = metric(
        scale * sum(spans.get(f"min_error.{f}", {}).get("self_s", 0.0) for f in CLOSED_FORM),
        "s")
    metrics["cli.main.exit_nonzero"] = metric(traced.exit_nonzero, "count")
    metrics["cli.bytes_out"] = metric(traced.bytes_out, "bytes")

    grid = sum(a["resolution"] ** 3 + a["resolution"] if name.endswith("min_error")
               else a["resolution"] for name, a in tracer.args if name.startswith("oracle."))
    priors = sum(1 for name, _ in tracer.args if name == "oracle.brute_force_min_error")
    shots = sum(a["shots"] for name, a in tracer.args if name.startswith("simulate."))
    metrics["oracle.grid_points_per_prior.computed"] = metric(grid / priors if priors else 0, "count")
    metrics["simulate.shots"] = metric(shots, "count")
    metrics["simulate.draws_per_shot.computed"] = metric(
        tracer.rng["draws"] / shots if shots else 0, "count")
    for module, seconds in imports.items():
        metrics[f"import.{module.rsplit('.', 1)[-1]}_s"] = metric(seconds, "s")
    overhead = 100.0 * (traced.busy_s / plain.busy_s - 1.0)
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    metrics["trace.spans"] = metric(len(tracer.start), "count")
    report = [
        f"tracing overhead     {overhead:.1f} %   {traced.busy_s:.3f} s traced vs "
        f"{plain.busy_s:.3f} s plain (scaled), same {len(inputs)} operations, outputs "
        + ("identical" if same else "DIFFER: tracing changed an output"),
        f"{workload.host} kernel: {speed.describe()}",
    ]
    return traced, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trinedisc" / "__init__.py").is_file():
        fail(f"no trinedisc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trinedisc
    import trinedisc.cli  # noqa: F401 - the sweep and validate workloads call it

    if Path(trinedisc.__file__).resolve().parent != (SRC / "trinedisc").resolve():
        fail(f"imported trinedisc from {trinedisc.__file__}, not from {SRC}")

    q = (0.5, 0.3, 0.2)
    priors = trinedisc.canonicalize_priors(*q)
    missed = checks.selftest(
        trinedisc.optimal_measurement(priors), trinedisc.confidence_report(priors), q
    )
    if missed:
        fail("the correctness check missed planted faults:\n  " + "\n  ".join(missed), 1)

    print("machine " + json.dumps(machine(trinedisc)))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "correctness check self-test passed")
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](trinedisc, workdir)
        if args.trace:
            tally, metrics, report = per_layer(workload, rng)
        else:
            tally, metrics, report = end_to_end(workload, rng, args.seconds)
    for line in report:
        print("  " + line)
    if tally.failures:
        print(f"failures ({tally.failed} of {tally.attempted} operations, "
              f"{tally.wrong} with a wrong answer):")
        for kind, count in sorted(tally.failures.items(), key=lambda kv: -kv[1]):
            print(f"  {count:6d}  {kind}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
