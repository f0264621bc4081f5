"""Golden CLI outputs: JSON, text and CSV compared number by number.

``golden/cli_outputs.json`` holds the recorded standard output of each
command in ``CASES``.  Every number must agree at the 12 significant digits
the CLI prints (one unit in the last printed digit absorbs a rounding
boundary).  Only rounding noise gets an absolute 1e-12: the Helstrom
residuals and values that are zero to rounding.  Everything that is not a
number must match exactly.  ``verify`` output is compared as exact text:
its ``difference`` is the gap between two nearly equal numbers, so one
unit in the last place of the oracle's value shows in its printed digits.
The ``*_exact`` cases are compared as exact text too: the 12-digit
comparison reads -0.0 as 0.0, so only they pin the sign of every zero in
the printed matrix entries, on both branches.

Regenerate the recording (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from trinedisc.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_outputs.json"

#: Absolute allowance for rounding noise.
NOISE = 1e-12

CASES = {
    "optimal_three_outcome": ["optimal", "--p0", "0.34", "--p1", "0.33", "--p2", "0.33"],
    # canonical order (1, 2, 0): a rotation of the equator
    "optimal_cyclic_permutation": ["optimal", "--p0", "0.2", "--p1", "0.5", "--p2", "0.3"],
    # canonical order (1, 0, 2): a reflection of the equator
    "optimal_odd_permutation": ["optimal", "--p0", "0.3", "--p1", "0.5", "--p2", "0.2"],
    "optimal_edge_p2_zero": ["optimal", "--p0", "0.5", "--p1", "0.5", "--p2", "0"],
    "optimal_tie": ["optimal", "--p0", "0.6", "--p1", "0.2", "--p2", "0.2"],
    # det M = 7.8e-11, 2.6e-10 below the boundary delta_c at p = 0.42.  Just
    # above it the third element's weight vanishes like the distance to
    # the boundary and carries only about 8 correct digits in any double
    # precision construction, so that side is no golden case.
    "optimal_boundary": ["optimal", "--p", "0.42", "--delta", "0.253534207"],
    "confidence_point": ["confidence", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2"],
    "confidence_permuted": ["confidence", "--p0", "0.3", "--p1", "0.5", "--p2", "0.2"],
    "region_grid20": ["region", "--grid", "20"],
    "curves_p040": ["curves", "--p-values", "0.4", "--steps", "20"],
    "confidence_sweep": ["confidence", "--delta", "0.05", "--sweep", "10"],
    # the worst cases are a confidence and a min-error value
    "verify_default": ["verify", "--samples", "3", "--seed", "0"],
    "verify_min_error": ["verify", "--samples", "2", "--seed", "1"],
    # twenty priors, so a change to the oracle shows in its exact text
    "verify_wide": ["verify", "--samples", "20", "--seed", "7"],
    # forty priors: enough that a search over many priors at once cannot
    # hide an error in how it splits or joins them
    "verify_chunks": ["verify", "--samples", "40", "--seed", "11"],
}
# every optimal query is also recorded as JSON
CASES.update({f"{k}_json": v + ["--json"] for k, v in list(CASES.items()) if v[0] == "optimal"})
#: Compared as exact text: the three-outcome branch and a reflection.
EXACT_CASES = {
    f"{name}_exact{suffix}": CASES[name + suffix]
    for name in ("optimal_three_outcome", "optimal_odd_permutation")
    for suffix in ("", "_json")
}
CASES.update(EXACT_CASES)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|(?<![a-z_])[-+]?(?:nan|inf)(?![a-z_])")
_NOISE_KEYS = {"max_offdiag_residual", "min_global_eigenvalue"}


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def same_number(got: float, want: float, noise: bool = False) -> bool:
    """Equal at 12 significant digits, or both rounding noise."""
    if got == want:
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    if (noise or abs(want) < NOISE) and abs(got - want) <= NOISE:
        return True
    if want == 0.0:
        return False
    last_digit = 10.0 ** (math.floor(math.log10(abs(want))) - 11)
    return abs(got - want) <= last_digit * 1.001


def compare_json(got, want, path: str = "$", noise: bool = False) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [
            d
            for k in want
            for d in compare_json(got[k], want[k], f"{path}.{k}", noise or k in _NOISE_KEYS)
        ]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare_json(g, w, f"{path}[{i}]", noise)]
    if isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)
                                   and isinstance(got, float)):
        if isinstance(got, (int, float)) and not isinstance(got, bool):
            if same_number(float(got), float(want), noise):
                return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def compare_text(got: str, want: str) -> list[str]:
    """Line by line: the words must match, the numbers at 12 digits."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, expected {len(want_lines)}"]
    diffs = []
    for n, (g, w) in enumerate(zip(got_lines, want_lines)):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", w):
            diffs.append(f"line {n}: {g!r} != {w!r}")
            continue
        noise = w.startswith("helstrom:")
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            if not same_number(float(a), float(b), noise):
                diffs.append(f"line {n}: {a} != {b}")
    return diffs


def record() -> dict:
    outputs = {}
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        outputs[name] = {"argv": argv, "stdout": out}
    return outputs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recording_covers_every_case(golden):
    assert set(golden) == set(CASES)
    for name, argv in CASES.items():
        assert golden[name]["argv"] == argv


def assert_matches_golden(golden, name):
    code, out = run_cli(CASES[name])
    assert code == 0
    want = golden[name]["stdout"]
    argv = CASES[name]
    if argv[0] == "verify" or name in EXACT_CASES:
        assert out == want
        return
    if "--json" in argv or (argv[0] == "confidence" and "--sweep" not in argv):
        diffs = compare_json(json.loads(out), json.loads(want))
    else:
        diffs = compare_text(out, want)
    assert not diffs, "\n".join(diffs[:10])


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(golden, name):
    assert_matches_golden(golden, name)


def test_goldens_hold_when_run_twice_in_one_process(golden):
    # main reuses one parser for every call, so no call may leave state
    # behind that changes the next one
    names = sorted(CASES)
    for name in names + names[::-1]:
        assert_matches_golden(golden, name)


def test_comparison_catches_a_changed_digit(golden):
    # the comparison itself: a change in the 11th digit is caught, while
    # noise in a Helstrom residual is not
    assert not same_number(0.12345678901, 0.12345678902)
    assert same_number(0.123456789012, 0.123456789013)
    assert same_number(3e-17, -2e-16, noise=True)
    assert not same_number(1e-9, 0.0, noise=True)
    want = json.loads(golden["optimal_tie_json"]["stdout"])
    got = json.loads(golden["optimal_tie_json"]["stdout"])
    got["p_correct"] *= 1.0 + 1e-10
    assert compare_json(got, want)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
