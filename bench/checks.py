"""Independent correctness checks for every answer the benchmark receives.

Nothing here calls trinedisc.  The trine states, the Born rule, the
Helstrom optimality conditions and the Bayes posteriors are rebuilt from
numpy, so a wrong answer cannot pass by agreeing with the library's own
self-verification.

Each check returns a list of ``Problem``.  A problem is ``wrong`` when the
answer misses the exact value by more than the check's tolerance, and
``bound`` when a probability leaves [0, 1] by no more than ``ROUNDING``:
the value is right to rounding, but a probability above 1 is still a
defect the program should not return.  Both count as failed operations;
only ``wrong`` makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Agreement required between a reported value and its recomputation,
#: relative to the scale of the quantity.
TOL = 1e-9
#: How far past an exact probability bound a value may sit and still be
#: rounding rather than a wrong answer.
ROUNDING = 1e-12
#: CSV values carry 12 significant digits.
CSV_TOL = 1e-11
#: Monte Carlo estimates must lie within this many standard errors.
SE_LIMIT = 5.0
#: Ties on the region boundary go to the two-outcome branch (documented CLI
#: convention).
TIE = 1e-12

_EPS = np.finfo(float).eps
_KETS = [
    np.array([1.0, np.exp(2j * math.pi * j / 3.0)]) / math.sqrt(2.0) for j in range(3)
]
RHO = [np.outer(k, k.conj()) for k in _KETS]
INCONCLUSIVE = "?"


@dataclass(frozen=True)
class Problem:
    severity: str  # "wrong" | "bound"
    what: str


def _wrong(what: str) -> Problem:
    return Problem("wrong", what)


def _probability(name: str, value: float, lo: float = 0.0) -> list[Problem]:
    """Exact bound check lo <= value <= 1 with the rounding/wrong split."""
    excess = max(value - 1.0, lo - value)
    if not math.isfinite(value) or excess > ROUNDING:
        return [_wrong(f"{name} = {value!r} outside [{lo!r}, 1]")]
    if excess > 0.0:
        return [Problem("bound", f"{name} outside [{lo!r}, 1] by {excess:.3g}")]
    return []


def _born(op: np.ndarray, j: int) -> float:
    return float(np.trace(RHO[j] @ op).real)


def check_povm(elements, allowed_labels) -> list[Problem]:
    """Labels distinct and allowed, elements Hermitian and PSD, sum = I."""
    problems = []
    labels = [lab for lab, _ in elements]
    if len(set(labels)) != len(labels) or not set(labels) <= set(allowed_labels):
        problems.append(_wrong(f"bad labels {labels!r}"))
    total = np.zeros((2, 2), dtype=complex)
    for lab, op in elements:
        op = np.asarray(op, dtype=complex)
        if op.shape != (2, 2) or not np.all(np.isfinite(op)):
            return problems + [_wrong(f"element {lab!r} is not a finite 2x2 matrix")]
        scale = max(1.0, float(np.max(np.abs(op))))
        if np.max(np.abs(op - op.conj().T)) > TOL * scale:
            problems.append(_wrong(f"element {lab!r} is not Hermitian"))
        lo = float(np.linalg.eigvalsh(0.5 * (op + op.conj().T))[0])
        if lo < -TOL * scale:
            problems.append(_wrong(f"element {lab!r} has eigenvalue {lo!r}"))
        total += op
    if np.linalg.norm(total - np.eye(2), 2) > TOL:
        problems.append(_wrong("elements do not sum to the identity"))
    return problems


def check_optimal(q, p_correct: float, elements) -> list[Problem]:
    """Minimum-error answer for caller-order priors ``q``.

    The elements must form a POVM that satisfies the Helstrom conditions
    Gamma - q_j rho_j >= 0 with Gamma = sum_l q_l rho_l pi_l, and the
    reported success probability must equal the Born sum.
    """
    problems = check_povm(elements, (0, 1, 2))
    if problems:
        return problems
    gamma = sum(q[lab] * RHO[lab] @ np.asarray(op) for lab, op in elements)
    gamma = 0.5 * (gamma + gamma.conj().T)
    scale = max(1.0, float(np.linalg.norm(gamma, 2)))
    for j in range(3):
        lo = float(np.linalg.eigvalsh(gamma - q[j] * RHO[j])[0])
        if lo < -TOL * scale:
            problems.append(_wrong(f"Helstrom condition {j} fails by {lo!r}"))
    born = sum(q[lab] * _born(np.asarray(op), lab) for lab, op in elements)
    if abs(born - p_correct) > TOL:
        problems.append(_wrong(f"p_correct {p_correct!r} != Born sum {born!r}"))
    return problems + _probability("p_correct", p_correct, lo=max(q) - TOL)


def _best_confidence(q, i: int) -> tuple[float, float]:
    """Largest posterior q_i <psi_i|rho^-1|psi_i> and its condition number."""
    rho = sum(q[j] * RHO[j] for j in range(3))
    cond = float(np.linalg.cond(rho))
    if not math.isfinite(cond) or cond > 1e12:
        return math.nan, cond
    value = q[i] * float(np.vdot(_KETS[i], np.linalg.solve(rho, _KETS[i])).real)
    return min(value, 1.0), cond


def check_confidence(q, confidences, inconclusive: float, elements) -> list[Problem]:
    """Max-confidence answer for caller-order priors ``q``.

    Each confidence must equal the Bayes posterior of the returned element,
    reach the optimum q_i <psi_i|rho^-1|psi_i>, and be a probability; the
    inconclusive probability must equal its Born sum.
    """
    problems = check_povm(elements, (0, 1, 2, INCONCLUSIVE))
    if problems:
        return problems
    ops = {lab: np.asarray(op) for lab, op in elements}
    for i, c in enumerate(confidences):
        problems += _probability(f"confidence_{i}", c)
        if i not in ops:
            problems.append(_wrong(f"no element for state {i}"))
            continue
        joint = [q[j] * _born(ops[i], j) for j in range(3)]
        if sum(joint) > 0.0 and abs(c - joint[i] / sum(joint)) > TOL:
            problems.append(_wrong(f"confidence_{i} {c!r} is not the Bayes posterior"))
        best, cond = _best_confidence(q, i)
        if math.isfinite(best) and abs(c - best) > TOL + 16.0 * _EPS * cond:
            problems.append(_wrong(f"confidence_{i} {c!r} below the optimum {best!r}"))
    q_inc = ops.get(INCONCLUSIVE)
    expected = 0.0 if q_inc is None else sum(q[j] * _born(q_inc, j) for j in range(3))
    if abs(inconclusive - expected) > TOL:
        problems.append(_wrong(f"inconclusive {inconclusive!r} != {expected!r}"))
    return problems


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def check_csv(command: str, header: list[str], rows: list[list[str]]) -> list[Problem]:
    """Row checks for ``region``, ``curves`` and ``confidence`` CSV output."""
    problems: list[Problem] = []
    col = {name: k for k, name in enumerate(header)}
    for n, row in enumerate(rows):
        if len(row) != len(header):
            return [_wrong(f"row {n} has {len(row)} fields, header {len(header)}")]
        v = {name: row[k] for name, k in col.items()}
        if command in ("region", "curves"):
            pmax = max(_num(v["p0"]), _num(v["p1"]), _num(v["p2"]))
            pc = _num(v["p_correct"])
            if not pmax - CSV_TOL <= pc <= 1.0 + CSV_TOL:
                problems.append(_wrong(f"row {n}: p_correct {pc!r} outside [max p, 1]"))
            det = _num(v["determinant"])
            if command == "region":
                three = v["strategy"] == "three_element"
                two_ok = det >= -TIE or _num(v["p2"]) <= 0.0
                if three == two_ok or v["strategy"] not in ("two_element", "three_element"):
                    problems.append(_wrong(f"row {n}: {v['strategy']} at det {det!r}"))
            elif (v["p_3el_valid"] == "1") != (det < 0.0):
                problems.append(_wrong(f"row {n}: p_3el_valid disagrees with det {det!r}"))
        else:
            for i in range(3):
                mc, me = _num(v[f"mc_confidence_{i}"]), _num(v[f"me_confidence_{i}"])
                if not 0.0 <= mc <= 1.0 + CSV_TOL:
                    problems.append(_wrong(f"row {n}: mc_confidence_{i} = {mc!r}"))
                if me > mc + CSV_TOL:
                    problems.append(_wrong(f"row {n}: min-error confidence above max"))
        if len(problems) > 3:
            break
    return problems


def check_verify(payload: dict, samples: int) -> list[Problem]:
    if payload.get("ok") is not True or payload.get("samples") != samples:
        return [_wrong(f"verify reported {payload.get('ok')!r}: {payload.get('worst')}")]
    return []


def check_simulate(payload: dict, shots: int) -> list[Problem]:
    problems = []
    total = payload.get("total_shots") or payload.get("shots")
    if total != shots:
        problems.append(_wrong(f"simulate ran {total!r} shots, asked {shots}"))
    if not payload.get("se_multiple", math.inf) <= SE_LIMIT:
        problems.append(_wrong(f"estimate is {payload.get('se_multiple')!r} SE off"))
    return problems


def selftest(optimal_result, confidence_report, q) -> list[str]:
    """Plant wrong answers and return a line for every one not flagged.

    ``optimal_result`` and ``confidence_report`` are genuine library
    answers for caller-order priors ``q`` that must pass unchanged.
    """
    m = list(optimal_result.measurement.elements)
    bumped = [(m[0][0], m[0][1] + 1e-6 * np.diag([1.0, 0.0]))] + m[1:]
    cr = confidence_report
    conf_elems = list(cr.measurement.elements)
    region_header = ["p0", "p1", "p2", "strategy", "p_correct", "determinant"]
    region_row = ["0.5", "0.3", "0.2", "two_element", "0.75", "0.01"]
    cases = {
        "genuine min-error answer": (
            False, check_optimal(q, optimal_result.p_correct, m)),
        "genuine max-confidence answer": (
            False, check_confidence(q, cr.per_state_confidence,
                                    cr.inconclusive_probability, conf_elems)),
        "perturbed POVM element": (
            True, check_optimal(q, optimal_result.p_correct, bumped)),
        "p_correct off by 1e-6": (
            True, check_optimal(q, optimal_result.p_correct + 1e-6, m)),
        "confidence above 1": (
            True, check_confidence(q, (1.01,) + tuple(cr.per_state_confidence[1:]),
                                   cr.inconclusive_probability, conf_elems)),
        "region strategy against det sign": (
            True, check_csv("region", region_header,
                            [region_row[:3] + ["three_element"] + region_row[4:]])),
        "simulate 6 SE off": (True, check_simulate({"shots": 10, "se_multiple": 6.0}, 10)),
        "verify not ok": (True, check_verify({"ok": False, "samples": 1}, 1)),
    }
    missed = []
    for name, (planted, problems) in cases.items():
        flagged = any(p.severity == "wrong" for p in problems)
        if flagged != planted:
            missed.append(f"{name}: expected flagged={planted}, got {problems}")
    return missed

