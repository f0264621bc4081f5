"""The benchmark's workloads: seeded inputs, one operation, its check.

Every workload drives trinedisc from outside, one caller in a closed
loop: the next operation starts when the previous one returns.  A run's
operations are a fixed list of passes made from the seed.  The run goes
through all of them once, then cycles through them again until its time is
up, stopping only between passes.  Each distinct operation is counted and
checked once; a repeat must give byte-identical output.  So the counts of
attempted and failed operations depend on neither the host's speed nor
the run length, and a later fix of a known failure shows as an exact drop.

- ``query``: one caller-order prior triple through the quick-start path
  ``canonicalize_priors`` -> ``optimal_measurement`` ->
  ``confidence_report``.  Four fifths of the triples are uniform on the
  simplex; one fifth come from the hard families (edges, ties, corners,
  points within 1e-9 of the region boundary).  The triples are a fixed
  reference set and the seed orders them: about one uniform triple in two
  thousand lands in the failing corner, so seeded triples would make the
  failure count differ from seed to seed.
- ``sweep``: the CSV commands ``region``, ``curves`` and ``confidence
  --sweep`` in-process through ``trinedisc.cli.main``, written to a file.
- ``verify``: ``verify --samples 10`` with seeded ``--seed``, which runs
  the brute-force oracles at the CLI defaults.
- ``simulate``: Monte Carlo runs with seeded sampler seeds, both
  strategies, 1e6 and 1e7 shots, one and two partitions, plus the
  near-corner ``maxconf`` triple.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks


@dataclass
class Outcome:
    """What one operation did, as the benchmark saw it."""

    seconds: float
    items: int = 0
    failure: str | None = None  # None when the operation succeeded
    wrong: bool = False  # an answer failed its check beyond tolerance
    exit_nonzero: bool = False
    bytes_out: int = 0
    output: bytes = b""  # canonical output, to compare traced and untraced runs


def failure_kind(text: str) -> str:
    """A message with its numbers masked, so equal failures group together."""
    first = text.strip().splitlines()[0] if text.strip() else "no message"
    return re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", first)[:90]


def _problems_outcome(seconds, problems, stage) -> Outcome:
    first = problems[0]
    return Outcome(
        seconds,
        failure=f"{stage}: check ({first.severity}): {failure_kind(first.what)}",
        wrong=any(p.severity == "wrong" for p in problems),
    )


# -- query -----------------------------------------------------------------


def critical_delta(p: float):
    """Region boundary delta_c(p), or None where it does not exist.

    Written out here rather than taken from the library, so that inputs
    are made without calling the code under test.
    """
    inner = 1.0 - 6.0 * p + 16.0 * p**2 - 24.0 * p**3 + 16.0 * p**4
    if inner < 0.0:
        return None
    radicand = 2.0 - 6.0 * p + 5.0 * p**2 - 2.0 * math.sqrt(inner)
    return math.sqrt(radicand) if radicand >= 0.0 else None


def hard_triple(rng: np.random.Generator, family: int) -> tuple[float, float, float]:
    """A canonical-order triple from one of the hard families."""
    if family == 0:  # edge, p2 = 0
        a = rng.uniform(0.5, 1.0)
        return (a, 1.0 - a, 0.0)
    if family == 1:  # tie p1 = p2, as (1-2e, e, e) with e log-spaced
        e = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        return (1.0 - 2.0 * e, e, e)
    if family == 2:  # corner, 1 - p0 log-spaced down to 1e-6
        s = 10.0 ** rng.uniform(-6.0, -1.0)
        u = rng.uniform()
        return (1.0 - s, s * u, s * (1.0 - u))
    while True:  # within 1e-9 of det M = 0
        p = rng.uniform(1.0 / 3.0, 0.5)
        dc = critical_delta(p)
        if dc is None:
            continue
        delta = dc + rng.uniform(-1e-9, 1e-9)
        if 0.0 <= delta <= min(p, 3.0 * p - 1.0):
            return (p + delta, p - delta, 1.0 - 2.0 * p)


class Query:
    name = "query"
    host = "small"
    calibrate_every = 50
    #: the host speed is timed between operations only
    sample_period_s = None
    #: medians over passes of many short operations, see ``run.end_to_end``
    median_over = "pass"
    rate_name = "query_per_s"
    item = "prior triples"
    pass_size = 250
    PASSES = 16
    HARD_SHARE = 0.2
    #: seeds the stream of the reference triples, the same in every run
    REFERENCE_SEED = 0

    def __init__(self, td, workdir):
        self.td = td
        ref = np.random.default_rng(self.REFERENCE_SEED)
        self.reference = [self._triple(ref) for _ in range(self.PASSES * self.pass_size)]

    def _triple(self, rng: np.random.Generator) -> tuple[float, float, float]:
        u = rng.uniform()
        if u < 1.0 - self.HARD_SHARE:
            q = tuple(rng.dirichlet((1.0, 1.0, 1.0)))
        else:
            family = min(3, int((u - (1.0 - self.HARD_SHARE)) / self.HARD_SHARE * 4))
            q = hard_triple(rng, family)
        return tuple(float(q[i]) for i in rng.permutation(3))

    def passes(self, rng: np.random.Generator) -> list[list]:
        ops = [self.reference[i] for i in rng.permutation(len(self.reference))]
        return [ops[i : i + self.pass_size] for i in range(0, len(ops), self.pass_size)]

    def warmup(self, rng):
        return self.reference[: self.pass_size]

    def run(self, triple) -> Outcome:
        td = self.td
        stage = "canonicalize_priors"
        t0 = perf_counter()
        try:
            priors = td.canonicalize_priors(*triple)
            stage = "optimal_measurement"
            result = td.optimal_measurement(priors)
            stage = "confidence_report"
            report = td.confidence_report(priors)
            seconds = perf_counter() - t0
        except Exception as exc:  # every library error is a counted failure
            seconds = perf_counter() - t0
            kind = f"{stage}: {type(exc).__name__}: {failure_kind(str(exc))}"
            return Outcome(seconds, failure=kind, output=kind.encode())
        q = [x / sum(triple) for x in triple]
        elements = result.measurement.elements
        problems = checks.check_optimal(q, result.p_correct, elements)
        if problems:
            return _problems_outcome(seconds, problems, "optimal_measurement")
        problems = checks.check_confidence(
            q,
            report.per_state_confidence,
            report.inconclusive_probability,
            report.measurement.elements,
        )
        if problems:
            return _problems_outcome(seconds, problems, "confidence_report")
        output = repr(
            (result.strategy, result.p_correct, report.per_state_confidence,
             report.inconclusive_probability)
        ).encode()
        for _, op in elements + report.measurement.elements:
            output += np.asarray(op).tobytes()
        return Outcome(seconds, items=1, output=output)


# -- CLI workloads ---------------------------------------------------------


def run_cli(td_cli, argv: list[str]) -> tuple[float, int, str, str]:
    """Run ``trinedisc.cli.main`` in-process; (seconds, exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = td_cli.main(argv)
        seconds = perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def _exit_outcome(seconds, label, code, stderr) -> Outcome:
    kind = f"{label}: exit {code}: {failure_kind(stderr)}"
    return Outcome(seconds, failure=kind, exit_nonzero=True, output=kind.encode())


class Sweep:
    name = "sweep"
    host = "small"
    calibrate_every = 1
    #: commands of up to seconds, between which the host changes speed
    sample_period_s = 0.02
    median_over = "operation"
    rate_name = "sweep_rows_per_s"
    item = "CSV rows"
    #: (argv, rows a full run writes); ``confidence --sweep`` skips the
    #: pure-ensemble corner, so its count is an upper bound.
    COMMANDS = (
        (["region", "--grid", "400"], 400 * 400),
        (["region", "--grid", "100"], 100 * 100),
        (["curves", "--p-values", "0.35,0.40,0.45", "--steps", "200"], 3 * 200),
        (["confidence", "--delta", "0.05", "--sweep", "50"], 50),
        (["confidence", "--delta", "0.49", "--sweep", "50"], 50),
    )

    def __init__(self, td, workdir):
        self.cli = td.cli
        self.path = os.path.join(workdir, "sweep.csv")

    def passes(self, rng):
        return [list(self.COMMANDS)]

    def warmup(self, rng):
        return [
            (["region", "--grid", "20"], 400),
            (["curves", "--p-values", "0.4", "--steps", "20"], 20),
            (["confidence", "--delta", "0.05", "--sweep", "5"], 5),
        ]

    def run(self, command) -> Outcome:
        argv, expected = command
        seconds, code, stdout, stderr = run_cli(self.cli, argv + ["--out", self.path])
        try:
            if code != 0:
                return _exit_outcome(seconds, " ".join(argv), code, stderr)
            with open(self.path, "rb") as fh:
                data = fh.read()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path)
        lines = data.decode("utf-8").splitlines()
        table = list(csv.reader(lines[1:]))
        rows = table[1:]
        problems = []
        if not lines[0].startswith("# trinedisc ") or not table:
            problems.append(checks.Problem("wrong", "missing metadata or header line"))
        elif not (len(rows) == expected or (argv[0] == "confidence" and 0 < len(rows) <= expected)):
            problems.append(checks.Problem("wrong", f"{len(rows)} rows, expected {expected}"))
        else:
            problems = checks.check_csv(argv[0], table[0], rows)
        bytes_out = len(data) + len(stdout)
        if problems:
            outcome = _problems_outcome(seconds, problems, " ".join(argv))
            outcome.bytes_out = bytes_out
            return outcome
        return Outcome(seconds, items=len(rows), bytes_out=bytes_out, output=data)


class Verify:
    name = "verify"
    host = "medium"
    calibrate_every = 1
    sample_period_s = None
    median_over = "operation"
    rate_name = "verify_priors_per_s"
    item = "priors checked"
    SAMPLES = 10
    PASSES = 3

    def __init__(self, td, workdir):
        self.cli = td.cli

    def passes(self, rng):
        return [[(self.SAMPLES, int(rng.integers(0, 2**31 - 1)))] for _ in range(self.PASSES)]

    def warmup(self, rng):
        return [(1, 0)]

    def run(self, spec) -> Outcome:
        samples, seed = spec
        argv = ["verify", "--samples", str(samples), "--seed", str(seed)]
        seconds, code, stdout, stderr = run_cli(self.cli, argv)
        if code != 0:
            return _exit_outcome(seconds, "verify", code, stderr)
        problems = checks.check_verify(json.loads(stdout), samples)
        if problems:
            return _problems_outcome(seconds, problems, "verify")
        return Outcome(seconds, items=samples, bytes_out=len(stdout), output=stdout.encode())


class Simulate:
    name = "simulate"
    host = "large"
    calibrate_every = 1
    sample_period_s = None
    median_over = "operation"
    rate_name = "mc_shots_per_s"
    item = "shots"
    #: The README's simulate triple (three-outcome branch), fixed so that
    #: every pass costs the same; the seed varies the sampler streams.
    TRIPLE = ("0.34", "0.33", "0.33")
    NEAR_CORNER = ("0.998", "0.001", "0.001")

    def __init__(self, td, workdir):
        self.cli = td.cli

    def passes(self, rng):
        seed = str(int(rng.integers(0, 2**31 - 1)))
        runs = [
            (self.TRIPLE, strategy, shots, parts, seed)
            for strategy in ("optimal", "maxconf")
            for shots in (1_000_000, 10_000_000)
            for parts in (1, 2)
        ]
        return [runs + [(self.NEAR_CORNER, "maxconf", 1_000_000, 1, seed)]]

    def warmup(self, rng):
        return [(self.TRIPLE, s, 100_000, 1, "1") for s in ("optimal", "maxconf")]

    def run(self, spec) -> Outcome:
        (p0, p1, p2), strategy, shots, parts, seed = spec
        argv = [
            "simulate", "--strategy", strategy, "--p0", p0, "--p1", p1, "--p2", p2,
            "--shots", str(shots), "--partitions", str(parts), "--seed", seed,
        ]
        seconds, code, stdout, stderr = run_cli(self.cli, argv)
        if code != 0:
            return _exit_outcome(seconds, " ".join(argv[1:9]), code, stderr)
        problems = checks.check_simulate(json.loads(stdout), shots)
        if problems:
            return _problems_outcome(seconds, problems, " ".join(argv[1:9]))
        return Outcome(seconds, items=shots, bytes_out=len(stdout), output=stdout.encode())


WORKLOADS = {w.name: w for w in (Query, Sweep, Verify, Simulate)}


class Tally:
    """Counts, latencies and failures of the operations of one phase.

    ``attempted``, ``failed`` and ``wrong`` count each distinct operation
    once, at its first execution; times, items and outputs count every
    execution.  A repeat whose output differs from its first is wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.executions = 0
        self.items = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []  # seconds per work item
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.mismatched = 0  # repeats whose output differs from the first
        self.exit_nonzero = 0
        self.bytes_out = 0
        self.digest = hashlib.sha256()
        self.op_seconds: dict = {}  # operation key -> seconds of each execution
        self.op_items: dict = {}  # operation key -> items, 0 if it failed
        self._first: dict = {}  # operation key -> digest of its first output

    def add(self, key, outcome: Outcome) -> None:
        self.executions += 1
        self.busy_s += outcome.seconds
        self.exit_nonzero += outcome.exit_nonzero
        self.bytes_out += outcome.bytes_out
        self.digest.update(outcome.output)
        if outcome.failure is None:
            self.items += outcome.items
            self.latencies.append(outcome.seconds / outcome.items)
        self.op_seconds.setdefault(key, []).append(outcome.seconds)
        output = hashlib.sha256(outcome.output).digest()
        if key in self._first:
            if self._first[key] != output:
                self.mismatched += 1
                self.wrong += 1
            return
        self._first[key] = output
        self.op_items[key] = outcome.items if outcome.failure is None else 0
        self.attempted += 1
        if outcome.failure is not None:
            self.failures[outcome.failure] = self.failures.get(outcome.failure, 0) + 1
            self.wrong += outcome.wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())
