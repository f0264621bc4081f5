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


def test_complex_numbers_appear_only_where_matrices_go_out():
    # every layer computes in real Bloch forms; only the 2x2 matrices a
    # caller reads (qubit.Measurement.elements, and qubit._entries, which
    # the CLI prints, both from qubit._rows) hold complex numbers: no
    # imaginary constant and no ``complex`` name anywhere else
    sites = []
    for path in sorted((SRC / "trinedisc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if path.stem == "qubit"
            and isinstance(fn, ast.FunctionDef)
            and fn.name in ("_rows", "elements", "_entries")
            for node in ast.walk(fn)
        }
        sites += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed
            and (
                (isinstance(node, ast.Constant) and isinstance(node.value, complex))
                or (isinstance(node, ast.Name) and node.id == "complex")
            )
        ]
    assert sites == []


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


def test_unit_roundoff_is_defined_in_one_place():
    # min_error._U alone writes u = 2^-53, and oracle imports it
    written = [
        path.name
        for path in sorted((SRC / "trinedisc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp) and ast.unparse(node) in ("2.0 ** (-53)", "2 ** (-53)")
    ]
    assert written == ["min_error.py"]
    assert oracle._U is min_error._U


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


def test_zero_priors_are_refused_by_one_rule():
    # the three-outcome construction, its success probability and the
    # sweeps' columns all test for strictly positive priors with _positive
    assert sorted(call_sites("_positive")) == [
        ("_sweeps", "__init__"),
        ("min_error", "gamma_three_element"),
        ("min_error", "p_correct_three_element"),
    ]


def unused_methods(trees: dict) -> list[str]:
    """``module.Class.name`` of each method or property of a module-level
    class that no code in ``trees`` reads as an attribute outside that
    method's own def; a local variable of the same name is no read, and
    dunders are exempt."""
    reads = []  # (attribute name, ids of the nodes enclosing the read)
    for tree in trees.values():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                enclosing, scope = set(), parent.get(node)
                while scope is not None:
                    enclosing.add(id(scope))
                    scope = parent.get(scope)
                reads.append((node.attr, enclosing))
    return [
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not any(name == fn.name and id(fn) not in enclosing for name, enclosing in reads)
    ]


def test_every_src_function_has_a_src_caller():
    # a module-level function or class that no package code names, apart
    # from its own def, and no __all__ exports is test-only code; so is a
    # method or property that no package code reads
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
    # Measurement.elements, the documented matrix output, is read by library
    # callers and the benchmark only; ROADMAP's D14 removes it
    assert unused_methods(trees) == ["qubit.Measurement.elements"]
    planted = (
        "class Box:\n"
        "    def opened(self):\n"
        "        return self.opened()\n"
        "    def shut(self):\n"
        "        return self\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def use(box):\n"
        "    opened = box.shut()\n"
        "    return opened\n"
    )
    assert unused_methods({**trees, "planted": ast.parse(planted)}) == [
        "qubit.Measurement.elements",
        "planted.Box.opened",
    ]


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


def test_single_query_hot_path_builds_no_generators():
    # each prior runs these once or more; over the three fixed states a
    # generator, zip or comprehension cost more than the arithmetic, so they
    # work on the states' scalars (tests/test_loop_forms.py holds their bits)
    hot = (
        ("max_confidence", "mc_povm"),
        ("max_confidence", "confidence_report"),
        ("min_error", "check_helstrom"),
        ("oracle", "certify_min_error"),
        ("trine", "canonicalize_priors"),
        ("trine", "transform_to_original"),
        ("qubit", "Measurement.__init__"),
    )
    found = {}
    for module, name in hot:
        fn = ast.parse((SRC / "trinedisc" / f"{module}.py").read_text(encoding="utf-8"))
        for part in name.split("."):  # a method is found through its class
            (fn,) = [
                n for n in fn.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
            ]
        found[name] = [
            ast.unparse(node)
            for node in ast.walk(fn)
            if isinstance(node, ast.GeneratorExp)
            or (isinstance(node, ast.Call) and ast.unparse(node.func) == "zip")
            or (isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp))
                and "TRINE_BLOCH" in ast.unparse(node))
        ]
    assert found == {name: [] for _, name in hot}


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


def is_setter_call(stmt) -> bool:
    """Whether ``stmt`` is a bare call of a slot setter, ``_set_<field>(self, value)``."""
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and ast.unparse(stmt.value.func).startswith("_set_")
    )


def hand_written_inits(source: str) -> tuple[list, list]:
    """The records defined in ``source``, and those whose own ``__init__``
    only calls slot setters, which is the ``__init__`` that _Record builds."""
    records, offenders = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and "_Record" in map(ast.unparse, node.bases):
            records.append(node.name)
            offenders += [
                node.name
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                and all(map(is_setter_call, stmt.body))
            ]
    return records, offenders


def test_no_record_writes_out_the_init_that_record_builds():
    # _Record builds the __init__ that only sets each field in turn; a record
    # writes its own only to check or normalise what it is given
    records, offenders = [], []
    for path in sorted((SRC / "trinedisc").glob("*.py")):
        found, flagged = hand_written_inits(path.read_text(encoding="utf-8"))
        records += found
        offenders += flagged
    assert len(records) == 8
    assert offenders == []
    planted = (
        "class Pair(_Record):\n"
        "    __slots__ = _fields = ('a', 'b')\n"
        "    def __init__(self, a, b):\n"
        "        _set_a(self, a)\n"
        "        _set_b(self, b)\n"
    )
    assert hand_written_inits(planted) == (["Pair"], ["Pair"])


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


def test_verify_imports_and_refines_no_grid_search(monkeypatch):
    # verify certifies each answer from its own bounds: a process that runs
    # it loads no grid search, and with the grid search loaded it refines
    # nothing
    code = (
        "import contextlib, io, json, sys, trinedisc.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', '--samples', '2'])\n"
        "print(json.dumps(sorted(m for m in sys.modules if 'grid_search' in m)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(TESTS), capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []
    refined = []
    refine = grid_search._refine

    def record(*args):
        refined.append(args)
        return refine(*args)

    monkeypatch.setattr(grid_search, "_refine", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--samples", "40"]) == 0
    assert refined == []
    # the recorder sees the grid search's own refinements
    grid_search.brute_force_max_confidence(list(random_priors(default_rng(0), 1)), [0], 16, 0)
    assert len(refined) == 1


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


@pytest.mark.parametrize(
    "argv, code",
    [(["optimal", "--p0", "0.5", "--p1", "0.3", "--p2", "0.2"], 0), (["optimal", "--p0", "0.5"], 2)],
    ids=["answer", "usage_error"],
)
def test_module_entry_exits_with_what_main_returns(argv, code, capsys):
    # ``python -m trinedisc.cli`` runs cli.entry_point, the console script's
    # target, which prints what main prints and exits with its code
    proc = subprocess.run(
        [sys.executable, "-m", "trinedisc.cli", *argv], env=src_env(), capture_output=True, text=True
    )
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


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
