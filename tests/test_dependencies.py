"""Lint checks: the program runs on the standard library and numpy alone, its
modules keep out of each other's private names, each input has one
spelling and one way in, config keys and saved models are checked by one
reader, and every CLI flag reaches the resolved config."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slabreg
from slabreg import bounds, cli, dictionary

ALLOWED = {"numpy", "slabreg"}
SOURCES = sorted(Path(slabreg.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _loaded_by_import(module):
    """Whether a fresh ``import slabreg`` loads ``module``."""
    code = f"import sys, slabreg; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(slabreg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip() == "True"


def test_import_loads_no_scipy():
    assert not _loaded_by_import("scipy")


def test_import_loads_no_numpy_fft():
    # numpy loads numpy.fft on first use; the truth's sup bound reads it
    # there, so importing it at the top of a module would add its load to
    # every command's start-up.
    assert not _loaded_by_import("numpy.fft")


def test_import_loads_no_thread_pool():
    # only a threaded experiment runs a pool, so its module (with logging,
    # queue and traceback behind it) is imported where the pool starts
    assert not _loaded_by_import("concurrent.futures")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_imports_only_stdlib_and_numpy(path):
    tops = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    assert tops <= set(sys.stdlib_module_names) | ALLOWED


def test_declared_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    assert tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"] == ["numpy>=1.24"]


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_reads_no_private_name_of_another_module(path):
    tree = ast.parse(path.read_text())
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            reads += [name for name in names if _private(name)]
            if node.module is None:  # ``from . import dictionary as fd`` binds modules
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads += [f"{node.value.id}.{node.attr}"] if _private(node.attr) else []
    assert reads == []


def test_selector_reads_only_the_moments_products_and_diagonal():
    # The loop reads of the moments the diagonal and, per pass, a sweep: the
    # sweeps alone answer c @ G and G[:, k] @ c. The identity structure is
    # read once, to record orthonormal_design.
    tree = ast.parse((Path(slabreg.__file__).parent / "selector.py").read_text())
    recorded = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "orthonormal_design"
    }
    attrs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert not [node.lineno for node in attrs if node.attr == "gram"]
    identity = [node for node in attrs if node.attr == "identity"]
    assert identity and all(id(node) in recorded for node in identity)
    loop = _function("selector", "_iterate")
    reads = {
        node.attr
        for node in ast.walk(loop)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "moments"
    }
    assert reads == {"diag", "sweep"}
    moments = ast.parse((Path(slabreg.__file__).parent / "moments.py").read_text())
    products = {
        cls.name
        for cls in ast.walk(moments)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(node, ast.FunctionDef) and node.name == "interactions" for node in cls.body)
    }
    assert products == {"GramSweep", "IdentitySweep", "BlockSweep"}


def _function(module, name):
    tree = ast.parse((Path(slabreg.__file__).parent / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def _called_names(node):
    calls = [call.func for call in ast.walk(node) if isinstance(call, ast.Call)]
    return {func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None) for func in calls}


def test_selector_builds_iteration_records_in_the_projection_step_alone():
    # One step moves a coefficient and records it; from_json_dict builds records through ``cls``.
    tree = ast.parse((Path(slabreg.__file__).parent / "selector.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "IterationRecord"
    ]
    step = _function("selector", "_project")
    assert calls and all(step.lineno <= line <= step.end_lineno for line in calls)


def test_experiments_run_one_replicate_loop():
    # ``_study`` alone draws a replicate, starts a thread pool or loops over
    # sizes and replicates; each experiment adds a setup and its columns.
    tree = ast.parse((Path(slabreg.__file__).parent / "experiments.py").read_text())
    loop = _function("experiments", "_study")
    for name in ("_replicate", "ThreadPoolExecutor"):
        calls = [
            node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        ]
        reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name]
        assert len(calls) == 1 and all(loop.lineno <= line <= loop.end_lineno for line in reads), name
    for name in ("rate_experiment", "coverage_study", "transductive_experiment"):
        body = _function("experiments", name)
        assert not [node for node in ast.walk(body) if isinstance(node, (ast.For, ast.AsyncFor))], name
        assert "map" not in _called_names(body), name


def test_compute_radius_is_the_one_gate_of_every_formula():
    # compute_radius alone checks the geometry, compares the statistics' m
    # with the moments' and calls a row's radius; no radius function tests
    # a BoundSpec constant that its row declares.
    gate = _function("bounds", "compute_radius")
    sites = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            calls = isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "_require_geometry" or getattr(node.func, "attr", None) == "radius"
            )
            compares_m = isinstance(node, ast.Compare) and all(
                getattr(side, "attr", None) == "m" and getattr(side.value, "id", None) in ("stats", "moments")
                for side in (node.left, *node.comparators)
            )
            if calls or compares_m:
                sites.append((path.name, node.lineno))
    assert len(sites) == 3 and all(name == "bounds.py" and gate.lineno <= line <= gate.end_lineno for name, line in sites)
    for variant, entry in bounds.VARIANT_TABLE.items():
        formula = _function("bounds", entry.radius.__name__)
        tests = [node for node in ast.walk(formula) if isinstance(node, ast.Compare)]
        tests += [node.test for node in ast.walk(formula) if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert))]
        read = {
            node.attr
            for test in tests
            for node in ast.walk(test)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spec"
        }
        assert not read & set(entry.constants), variant


@pytest.mark.parametrize(
    "name,owners",
    [
        ("sweep", [("selector", "_iterate")]),
        ("empirical_test_moments", [("bounds", "sample_geometry")]),
        ("split_features", [("bounds", "sample_geometry"), ("bounds", "compute_stats")]),
        ("sample_geometry", [("cli", "_load_sample"), ("experiments", "_replicate")]),
        ("load_labeled_csv", [("cli", "_load_sample")]),
        ("load_unlabeled_csv", [("cli", "_load_sample")]),
    ],
    ids=["sweep", "empirical_test_moments", "split_features", "sample_geometry", "load_labeled_csv",
         "load_unlabeled_csv"],
)
def test_one_path_from_a_sample_to_a_fit(name, owners):
    # The loop alone takes a pass's Gram products, so it alone computes a
    # residual; sample_geometry alone pairs a sample's split with its test
    # Gram, and compute_stats splits whatever else it is given. The CLI
    # loads every sample (fit, transduce, bounds) in one function, and a
    # study draws each replicate's in one.
    spans = {(f"{module}.py", function): _function(module, function) for module, function in owners}
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    owner = {
        site: next((key for key, fn in spans.items() if key[0] == site[0] and fn.lineno <= site[1] <= fn.end_lineno), None)
        for site in sites
    }
    assert None not in owner.values() and set(owner.values()) == set(spans), sites


def test_excluded_features_warn_from_one_place():
    # A fit warns once about the features it excludes, from run_selection;
    # no other code of the program warns.
    fit = _function("selector", "run_selection")
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "warn" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(sites) == 1 and sites[0][0] == "selector.py" and fit.lineno <= sites[0][1] <= fit.end_lineno, sites


def test_only_the_feature_matrix_takes_libm_waves():
    # A wave costs about 20 ns of libm, against about 1 ns for a product:
    # the sums of the trigonometric family take their waves from one FFT
    # (Gridding), and only evaluate, the matrix path whose bits the row walk
    # keeps, takes one wave per cell.
    tree = ast.parse((Path(slabreg.__file__).parent / "dictionary.py").read_text())
    family = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Trigonometric")
    evaluate = next(node for node in family.body if isinstance(node, ast.FunctionDef) and node.name == "evaluate")
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("cos", "sin") and getattr(node.value, "id", None) == "np"
    ]
    assert sites and all(evaluate.lineno <= line <= evaluate.end_lineno for line in sites), sites


def _names(node):
    """Every name that ``node`` reads, binds or imports, attributes included."""
    return {
        getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "name", None)
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    }


def test_each_family_sums_and_bounds_its_own_features():
    # The statistics ask the family for its column sums, the auto spec asks
    # it for its sup, a prediction for its combination and the CLI for its
    # anchor map, so none of them names a family or its kernels.
    for module in ("bounds", "selector", "moments", "cli"):
        tree = ast.parse((Path(slabreg.__file__).parent / f"{module}.py").read_text())
        assert not _names(tree) & {*dictionary.DICTIONARY_CLASSES, "wave_sums", "Gridding"}, module
    assert "basis" not in _names(_function("experiments", "_auto_bound_spec"))


def test_a_fit_takes_its_dictionary_once_with_its_features():
    # run_selection reads the dictionary it records off its one features
    # argument, so no caller passes a dictionary and its features apart.
    fit = _function("selector", "run_selection")
    params = [arg.arg for arg in (*fit.args.args, *fit.args.kwonlyargs)]
    assert params[:4] == ["data", "features", "moments", "spec"] and "dictionary" not in params
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and any(keyword.arg == "features" for keyword in node.keywords)
    ]
    assert sites == []


def test_no_dictionary_kind_is_an_alias_of_another():
    # One kind name per family: no registered class subclasses another.
    classes = list(dictionary.DICTIONARY_CLASSES.values())
    assert not [(a.kind, b.kind) for a in classes for b in classes if a is not b and issubclass(a, b)]


def test_test_gram_is_not_compared_with_its_transpose():
    # The test Gram is exactly symmetric as built; nothing compares or averages it with its transpose.
    assert not _called_names(_function("moments", "empirical_test_moments")) & {"array_equal", "_symmetrize"}


def test_csv_row_loop_makes_no_numpy_call():
    # CSV rows are parsed in Python floats; numpy sees the values once, after the row loop.
    loop = next(node for node in ast.walk(_function("data", "_parse")) if isinstance(node, ast.For))
    numpy_calls = [
        node.lineno
        for node in ast.walk(loop)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    ]
    assert numpy_calls == []


def test_only_the_data_module_parses_csv():
    # Training, test and Gram files are parsed by one reader, so a bad number
    # fails in the same words, naming its file line, whichever file holds it.
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "reader" and getattr(node.value, "id", None) == "csv"
    ]
    assert sites and {name for name, _ in sites} == {"data.py"}, sites


def test_every_spec_and_saved_record_is_read_through_the_reader():
    # A spec or a saved model rebuilt by a library caller is checked as a
    # config is: every from_spec and from_json_dict reads through a table.
    readers = [
        (path.name, node.name, _called_names(node))
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("from_spec", "from_json_dict")
    ]
    assert len(readers) >= 6
    assert [(name, function) for name, function, calls in readers if not calls & {"read", "read_kind"}] == []


# The reader's plain kinds and the converters they replaced: outside the
# reader's module a table may name a kind, but no code calls one.
CONVERTERS = {
    "json_number", "json_field", "number", "nonnegative", "probability", "seed", "text", "path", "json_object",
    "spec_object",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_reader_converts_config_values(path):
    if path.name == "errors.py":
        return
    tree = ast.parse(path.read_text())
    calls = [
        f"{node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in CONVERTERS
    ]
    if path.name == "cli.py":
        calls += [
            f"{node.lineno}: def {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("_number", "_seed", "_study_number")
        ]
    assert calls == []


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _flag_value(action):
    if action.choices:
        return action.choices[0]
    return {int: "3", float: "0.5"}.get(action.type, "value")


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_flag_reaches_the_resolved_config_under_its_own_name(command):
    parser = _subparsers()[command]
    flags = [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config", "json")]
    assert flags
    for action in flags:
        argv = [command, action.option_strings[0], _flag_value(action)]
        args = cli.build_parser().parse_args(argv)
        config = cli._resolve(args)
        assert config[action.dest] == getattr(args, action.dest), action.option_strings[0]
        assert action.option_strings[0].lstrip("-") in (action.dest, action.dest.removesuffix("s"))
    # --json shapes stdout only and is never echoed
    if any(a.dest == "json" for a in parser._actions):
        assert "json" not in cli._resolve(cli.build_parser().parse_args([command, "--json"]))


def test_no_keys_table_name_is_defined_in_two_modules():
    # Each table of config keys has one home, so one name reads one table.
    homes = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_KEYS"):
                    homes.setdefault(target.id, set()).add(path.name)
    assert homes and {name: files for name, files in homes.items() if len(files) > 1} == {}


# Set methods that compare one collection of keys with another.
KEY_COMPARISONS = {"difference", "issubset", "issuperset", "symmetric_difference", "isdisjoint", "intersection"}


def _keys_of(node):
    """Whether ``node`` is ``set(obj)`` or ``obj.keys()``: an object's keys."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "set" or getattr(node.func, "attr", None) == "keys"
    )


def test_only_the_reader_compares_config_keys_with_a_table():
    # errors.read alone checks an object's keys against its table; no second
    # gate, like a top-level key check in the CLI, exists beside it.
    assert "_check_keys" not in {
        node.name for node in ast.walk(ast.parse((Path(slabreg.__file__).parent / "cli.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    reader = _function("errors", "read")
    sites = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in KEY_COMPARISONS and _keys_of(node.func.value)
        or isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Sub, ast.BitXor, ast.BitAnd))
        and (_keys_of(node.left) or _keys_of(node.right))
    ]
    assert sites and all(name == "errors.py" and reader.lineno <= line <= reader.end_lineno for name, line in sites), sites
