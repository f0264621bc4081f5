"""The package's public surface resolves, and the CLI loads every layer."""

import ast
import contextlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.random import default_rng

import trinedisc
import trinedisc.cli
from trinedisc import max_confidence, min_error, oracle
from trinedisc.cli import main
from trinedisc.max_confidence import mc_confidence_closed_form
from trinedisc.min_error import check_helstrom
from trinedisc.trine import random_priors

import grid_search

LAYERS = ("trine", "qubit", "min_error", "max_confidence", "oracle", "simulate", "cli")
SRC = Path(trinedisc.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))
TESTS = Path(__file__).resolve().parent


def src_env(*extra: Path) -> dict:
    """The environment with the package's source directory, and ``extra``,
    on PYTHONPATH."""
    path = os.pathsep.join([str(SRC), *map(str, extra), os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("layer", [m for m in LAYERS if m != "cli"])
def test_all_names_resolve(layer):
    module = importlib.import_module(f"trinedisc.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_resolve():
    tree = ast.parse(Path(trinedisc.__file__).read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(trinedisc, n)] == []


def test_no_module_decodes_matrices():
    # a Measurement is built from Bloch forms only; matrices go out, never in
    decoders = ("from_matrices", "bloch_decomposition")
    offenders = [
        path.name
        for path in sorted((SRC / "trinedisc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in decoders)
        or (isinstance(node, ast.Attribute) and node.attr in decoders)
        or (isinstance(node, (ast.FunctionDef, ast.alias)) and node.name in decoders)
    ]
    assert offenders == []


def test_no_module_reads_the_environment():
    # every setting is a command-line flag or a keyword, never an environment variable
    offenders = [
        path.name
        for path in sorted((SRC / "trinedisc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
    ]
    assert offenders == []


def test_purity_is_tested_in_one_place():
    # trine.mixed_e2 alone decides that an ensemble is pure
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "trinedisc").glob("*.py"))
    }
    raises = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "PureStateError" in ast.unparse(node.exc)
    ]
    assert raises == ["trine.py"]
    # the max-confidence POVM is built in the caller's frame, with no matrix trace
    assert "transform_to_original" not in ast.unparse(trees["max_confidence.py"])
    assert [name for name, tree in trees.items() if "np.trace" in ast.unparse(tree)] == []


def call_sites(name: str) -> list[tuple[str, str | None]]:
    """(module, enclosing function) of each call to ``name`` in the package;
    the function is None for a call at module level."""
    sites = []
    for path in sorted((SRC / "trinedisc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                scope = parent.get(node)
                while scope is not None and not isinstance(scope, ast.FunctionDef):
                    scope = parent.get(scope)
                sites.append((path.stem, scope and scope.name))
    return sites


def test_branch_test_and_prior_draws_are_made_in_one_place():
    # det M is computed only to choose the branch, by one function that
    # optimal_branch and the sweeps' columns share, and priors are drawn
    # from numpy in one function, which verify and the tests share
    assert call_sites("boundary_determinant") == [("min_error", "_branch")]
    assert call_sites("_branch") == [("_sweeps", "__init__"), ("min_error", "optimal_branch")]
    assert call_sites("dirichlet") == [("trine", "random_priors")]


def test_every_src_function_has_a_src_caller():
    # a module-level function or class that no package code names, apart
    # from its own def, and no __all__ exports is test-only code
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "trinedisc").glob("*.py"))
    }
    exported, named = set(), set()
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    named.add((module, owner, getattr(node, "id", None) or node.attr))
            if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "__all__":
                exported |= set(ast.literal_eval(stmt.value))
    unused = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in exported
        and not any(
            name == stmt.name and (where, owner) != (module, stmt.name)
            for where, owner, name in named
        )
    ]
    assert unused == []


def test_the_other_two_priors_are_taken_in_one_place():
    # the closed form, the POVM, the certificate and the sweep columns all
    # read p_i and the other two priors from max_confidence._each_state
    assert sorted(call_sites("_each_state")) == [
        ("_sweeps", "confidence_columns"),
        ("max_confidence", "mc_confidence_closed_form"),
        ("max_confidence", "mc_povm"),
        ("oracle", "certify_max_confidence"),
    ]


def test_sweeps_import_nothing_from_the_cli():
    # cli imports _sweeps on first use; an import back would be a cycle
    tree = ast.parse((SRC / "trinedisc" / "_sweeps.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"trinedisc.{module}".rstrip(".")
            imported += [module, *(f"{module}.{alias.name}" for alias in node.names)]
    assert "trinedisc.max_confidence" in imported
    assert "trinedisc.cli" not in imported


def test_sweep_powers_are_of_p_and_p2_only():
    # on a sweep column, ** calls Python's pow once per run of equal values;
    # p and p2 repeat along the delta axis, delta and the priors do not, so
    # a power of any other base is written as products
    tree = ast.parse((SRC / "trinedisc" / "min_error.py").read_text(encoding="utf-8"))
    shared = ("_p_correct_two", "_three_element_terms", "boundary_determinant")
    bases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in shared:
            bases[node.name] = [
                ast.unparse(power.left)
                for power in ast.walk(node)
                if isinstance(power, ast.BinOp) and isinstance(power.op, ast.Pow)
                and not isinstance(power.left, ast.Constant)
            ]
    assert sorted(bases) == sorted(shared)
    assert all(bases.values())
    allowed = {"p", "p2", "priors.p", "priors.p2"}
    assert {name: [b for b in found if b not in allowed] for name, found in bases.items()} == {
        name: [] for name in shared
    }


def test_cli_import_loads_every_layer():
    code = (
        "import json, sys, trinedisc.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('trinedisc.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert {f"trinedisc.{m}" for m in LAYERS} <= loaded


def test_no_module_imports_dataclasses():
    # the records are plain classes: the dataclasses module and the class
    # processing it does were most of the package's import time
    offenders = [
        path.name
        for path in sorted((SRC / "trinedisc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert offenders == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S runs no site hooks, which may import either module themselves
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import trinedisc.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_cli_builds_its_parser_once_on_first_use():
    code = (
        "import contextlib, io, json, trinedisc.cli as cli\n"
        "built = [cli._parser.cache_info().misses]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(2):\n"
        "        cli.main(['optimal', '--p', '0.4', '--delta', '0.1'])\n"
        "        built.append(cli._parser.cache_info().misses)\n"
        "print(json.dumps(built))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
    ).stdout
    # none at import, one on the first call, none after
    assert json.loads(out) == [0, 1, 1]


def test_oracle_builds_its_grid_table_once_per_resolution():
    # verify certifies each answer from its own bounds and loads no grid
    # search; the grid search, now the tests' reference, builds its table
    # once per resolution
    code = (
        "import contextlib, io, json, sys, trinedisc.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', '--samples', '2'])\n"
        "searched = sorted(m for m in sys.modules if 'grid_search' in m)\n"
        "import grid_search\n"
        "from trinedisc.trine import canonicalize_priors\n"
        "table = grid_search._three_outcome_table\n"
        "built = [table.cache_info().misses]\n"
        "priors = [canonicalize_priors(0.5, 0.3, 0.2), canonicalize_priors(0.2, 0.3, 0.5)]\n"
        "for _ in range(2):\n"
        "    grid_search.brute_force_min_error(priors)\n"
        "    built.append(table.cache_info().misses)\n"
        "nbytes = sum(a.nbytes for a in table(72))\n"
        "built.append(table.cache_info().misses)\n"
        "print(json.dumps([searched, built, nbytes]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(TESTS), capture_output=True, text=True, check=True
    ).stdout
    searched, built, nbytes = json.loads(out)
    assert searched == []
    # none at import, one on the first search, none after, and the one
    # cached is the default r = 72
    assert built == [0, 1, 1, 1]
    assert nbytes <= 3_000_000


def test_oracle_refines_a_bounded_number_of_starts(monkeypatch):
    # the grid search takes forty priors in one call and searches them a
    # chunk at a time, so no refinement holds more than eight starts per
    # prior of one chunk; verify refines nothing
    rows = []
    refine = grid_search._refine

    def record(value_fn, starts, *args):
        rows.append(len(starts))
        return refine(value_fn, starts, *args)

    monkeypatch.setattr(grid_search, "_refine", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--samples", "40"]) == 0
    assert rows == []
    rng = default_rng(0)
    priors = list(random_priors(rng, 40))
    grid_search.brute_force_min_error(priors)
    grid_search.brute_force_max_confidence(priors, [n % 3 for n in range(40)])
    # two calls, so more than three refinements means chunks
    assert len(rows) > 3
    assert max(rows) <= 8 * grid_search._CHUNK_PRIORS


def test_verify_checks_helstrom_once_per_prior(monkeypatch):
    # the Helstrom report optimal_measurement makes is the one the
    # min-error certificate reads; no layer makes a second one
    reports = []

    def record(probabilities, m):
        report = check_helstrom(probabilities, m)
        reports.append(report)
        return report

    certified = []
    certify = oracle.certify_min_error

    def record_certify(probabilities, m, helstrom):
        certified.append((probabilities, m, helstrom))
        return certify(probabilities, m, helstrom)

    for module in (min_error, oracle, trinedisc.cli, trinedisc):
        if hasattr(module, "check_helstrom"):
            monkeypatch.setattr(module, "check_helstrom", record)
    monkeypatch.setattr(trinedisc.cli, "certify_min_error", record_certify)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--samples", "5"]) == 0
    rng = default_rng(0)
    draws = list(random_priors(rng, 5))
    assert len(reports) == len(certified) == 5
    for pr, (probabilities, m, helstrom), made in zip(draws, certified, reports):
        assert probabilities == pr.original
        assert helstrom is made
        assert helstrom == check_helstrom(pr.original, m)


def test_verify_computes_the_closed_form_confidences_once_per_prior(monkeypatch):
    # cmd_verify reads the closed forms that confidence_report checked its
    # posteriors against, and computes no second copy
    made = []

    def record(priors):
        made.append(mc_confidence_closed_form(priors))
        return made[-1]

    reports = []
    certify = oracle.certify_max_confidence

    def record_certify(priors, report):
        reports.append(report)
        return certify(priors, report)

    for module in (max_confidence, trinedisc.cli, trinedisc):
        if hasattr(module, "mc_confidence_closed_form"):
            monkeypatch.setattr(module, "mc_confidence_closed_form", record)
    monkeypatch.setattr(trinedisc.cli, "certify_max_confidence", record_certify)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--samples", "5"]) == 0
    draws = list(random_priors(default_rng(0), 5))
    assert len(made) == len(reports) == 5
    for pr, closed, report in zip(draws, made, reports):
        assert report.closed_form is closed
        assert closed == mc_confidence_closed_form(pr)


def test_every_benchmark_layer_is_a_module_of_the_package():
    # the benchmark's tracer reads each of its layers from sys.modules once
    # trinedisc and its CLI are imported, so a layer module that goes away
    # must fail here, not in the benchmark
    tracing = ast.parse((SRC.parent / "bench" / "tracing.py").read_text(encoding="utf-8"))
    [layers] = [
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"
    ]
    assert "oracle" in layers
    code = (
        "import json, sys, trinedisc, trinedisc.cli\n"
        f"print(json.dumps([m for m in {list(layers)!r} if 'trinedisc.' + m not in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


#: Single queries, which must not load numpy.
SINGLE_QUERIES = [
    ["optimal", "--p0", "0.34", "--p1", "0.33", "--p2", "0.33"],
    ["optimal", "--p0", "0.3", "--p1", "0.5", "--p2", "0.2", "--json"],
    ["confidence", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2"],
]
#: One command through each place the CLI imports numpy on first use.
NUMPY_PATHS = {
    "region": ["region", "--grid", "3"],
    "curves": ["curves", "--p-values", "0.4", "--steps", "3"],
    "confidence_sweep": ["confidence", "--delta", "0.05", "--sweep", "3"],
    "verify": ["verify", "--samples", "1"],
    "simulate": ["simulate", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2", "--shots", "100"],
}


def run_main_fresh(*argvs) -> tuple[list[int], bool]:
    """Exit codes of ``main`` on each argv, run in turn in a fresh interpreter,
    and whether numpy was loaded afterwards."""
    code = (
        "import contextlib, io, json, sys\n"
        "from trinedisc.cli import main\n"
        f"argvs = {json.dumps(argvs)}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in argvs]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, numpy_loaded = json.loads(proc.stdout)
    return codes, numpy_loaded


def test_single_queries_do_not_load_numpy():
    codes, numpy_loaded = run_main_fresh(*SINGLE_QUERIES)
    assert codes == [0] * len(SINGLE_QUERIES)
    assert not numpy_loaded


@pytest.mark.parametrize("argv", NUMPY_PATHS.values(), ids=list(NUMPY_PATHS))
def test_numpy_paths_run_in_a_fresh_interpreter(argv):
    codes, numpy_loaded = run_main_fresh(argv)
    assert codes == [0]
    assert numpy_loaded


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def readme_commands() -> list[list[str]]:
    """The ``trinedisc ...`` lines of the README's command-line block, as argvs."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("trinedisc ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the documented commands name only flags that exist, and succeed
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 6
    codes = {" ".join(argv): main(argv) for argv in commands}
    capsys.readouterr()
    assert codes == {command: 0 for command in codes}
