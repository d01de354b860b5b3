"""Every public function and class of the package has a user.

A public top-level definition in ``src/spurious_lens/<module>.py`` must be
read somewhere: by the package itself, by the acceptance gate
(``tests/test_acceptance.py``) or by the benchmark (``benchmarks/*.py``).
A re-export in ``__init__.py`` is not a use, and neither is a unit test
of the definition itself: code that only its own tests call is surface
to delete.  Uses are found in the syntax tree as names, attributes and
imported names.

The same users must pass each optional parameter of a public module-level
function, by position or by keyword: a default that only tests override is
a knob to delete.  The CLI and the configs get the same rule: the benchmark
or the acceptance gate passes each optional option of each subcommand, and
sets each config field, in a shipped config, a benchmark override or the
gate's own configs.

The top level re-exports only what the acceptance gate or the benchmark
imports from ``spurious_lens``; every other definition is imported from its
module.  ``__init__.py`` itself defines ``__version__``, which the CLI
reads, and ``load_schema``, which only the tests and the benchmark read.
"""

import argparse
import ast
import dataclasses
import json
from pathlib import Path

from spurious_lens import DiscreteConfig, GenerativeConfig
from spurious_lens.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "spurious_lens").glob("*.py")
                 if p.name != "__init__.py")
USERS = [*MODULES, ROOT / "tests" / "test_acceptance.py",
         *sorted((ROOT / "benchmarks").glob("*.py"))]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions() -> dict[str, str]:
    """Each public top-level function or class, mapped to its module."""
    return {node.name: path.stem for path in MODULES for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_definition_has_a_user():
    defined = public_definitions()
    assert defined.get("verify_theorem") == "theory"
    used = referenced_names(USERS)
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in used)
    assert not unused, f"public but read only by their own tests: {unused}"


def test_every_top_level_name_has_a_user():
    init = ROOT / "src" / "spurious_lens" / "__init__.py"
    exported = {alias.asname or alias.name for node in _tree(init).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert "verify_theorem" in exported
    imported = {alias.name
                for path in [ROOT / "tests" / "test_acceptance.py",
                             *sorted((ROOT / "benchmarks").glob("*.py"))]
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module == "spurious_lens"
                for alias in node.names}
    unused = sorted(exported - imported)
    assert not unused, f"re-exported but not imported from the top level: {unused}"



def passed_arguments(paths) -> set[tuple[str, object]]:
    """(callee, argument) for each argument a call passes: its position, its
    keyword, or "*" when a *args or **kwargs may pass any of them."""
    passed = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, position) for position in range(len(node.args)))
            passed.update((name, kw.arg or "*") for kw in node.keywords)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((name, "*"))
    return passed


def test_every_optional_parameter_has_a_caller():
    passed = passed_arguments(USERS)
    unpassed = []
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            defaulted = [(a.arg, i) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, default in
                          zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            unpassed += [f"{path.stem}.{node.name}({arg})" for arg, position in defaulted
                         if not {(node.name, arg), (node.name, position),
                                 (node.name, "*")} & passed]
    assert not unpassed, f"optional but set only by their own tests: {unpassed}"


# Dataclasses without a __post_init__, each with why it is not a NamedTuple.
UNCHECKED_DATACLASSES = {
    "TrainingMoments": "SyntheticDataset subclasses it; tests read dataclasses.fields",
    "SyntheticDataset": "it extends TrainingMoments with the rows",
    "PredictionTable": "its __len__ counts rows, not fields",
}


def test_every_dataclass_checks_its_fields():
    # defining a dataclass costs about ten times a NamedTuple at import, so a
    # record whose fields need no check is a NamedTuple
    unchecked = set()
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if (any(getattr(d, "id", None) == "dataclass" for d in decorators)
                    and "__post_init__" not in methods):
                unchecked.add(node.name)
    listed = set(UNCHECKED_DATACLASSES)
    assert not unchecked - listed, (
        f"a dataclass without __post_init__ should be a NamedTuple: {sorted(unchecked - listed)}")
    assert not listed - unchecked, f"listed but checked or gone: {sorted(listed - unchecked)}"


# Options that name where a run writes, not what it computes.
OUTPUT_OPTIONS = {"--out", "--svg"}


def argv_options(paths) -> set[tuple[str, str]]:
    """(subcommand, option) for each option in an argv literal: a list or
    tuple whose first item is a string, the subcommand."""
    passed = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.List, ast.Tuple)):
                words = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
                if words and isinstance(words[0], str):
                    passed.update((words[0], word) for word in words[1:]
                                  if isinstance(word, str) and word.startswith("--"))
    return passed


def test_every_optional_option_has_a_caller():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert "verify-theorem" in subcommands
    passed = argv_options([ROOT / "tests" / "test_acceptance.py", ROOT / "benchmarks" / "run.py"])
    unpassed = sorted(
        f"{name} {option}" for name, parser in subcommands.items()
        for action in parser._actions
        if not action.required and not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and option not in OUTPUT_OPTIONS
        and (name, option) not in passed)
    assert not unpassed, f"options that neither the gate nor the benchmark passes: {unpassed}"


def set_config_fields() -> set[str]:
    """The keys of the shipped configs, the keyword overrides of the
    benchmark's derived configs, and the fields the gate sets: a keyword
    of a config class or ``replace``, or a key of a JSON object literal."""
    fields = {key for path in (ROOT / "configs").glob("*.json")
              for key in json.loads(path.read_text(encoding="utf-8"))}
    gate = ROOT / "tests" / "test_acceptance.py"
    for path, callees in ((ROOT / "benchmarks" / "gen.py", {"_derived_config"}),
                          (gate, {"GenerativeConfig", "DiscreteConfig", "replace"})):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in callees:
                    fields.update(kw.arg for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Dict) and path == gate:
                fields.update(key.value for key in node.keys if isinstance(key, ast.Constant))
    return fields


def test_every_config_field_is_set():
    set_fields = set_config_fields()
    unset = sorted(f"{cls.__name__}.{field.name}" for cls in (GenerativeConfig, DiscreteConfig)
                   for field in dataclasses.fields(cls) if field.name not in set_fields)
    assert not unset, f"config fields that no shipped, benchmark or gate config sets: {unset}"
