"""Guards for the tooling around the package.

The benchmark's per-layer tracer patches program functions by name:
`bench/spans.py` lists them, and a rename or deletion in `fanheavy` would
make `bench/run.py --trace 1` fail, so every listed name must resolve.
Every top-level name of the package, and every method and property of its
classes, is used by the package or the benchmark, not only by the tests.
The runtime imports nothing outside the standard library, every `open` in
the package names its encoding and newline rule, `import fanheavy`
alone loads no submodule, the README's CLI synopsis names the options
and choices the parser accepts and the size caps of `gen`, and its count
of the generator's canonical searches is the one a run makes.
"""

import argparse
import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from fanheavy.cli import GEN_MAX_N_LABELED, GEN_MAX_N_REDUCED, build_parser

from conftest import counted_generation

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    for mod_name, fn_name, _suffix, _outcome in spans.FUNCTIONS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, cls_name, meth in spans.METHODS:
        cls = getattr(importlib.import_module(f"{spans.PACKAGE}.{mod_name}"), cls_name)
        assert callable(cls.__dict__.get(meth)), f"{mod_name}.{cls_name}.{meth}"


@pytest.mark.parametrize("workload", ["fheavy-random", "verify-n8", "cycles", "gen-reduce"])
def test_traced_benchmark_rechecks_every_result(workload):
    # the benchmark re-checks every witness with its own oracles
    # (bench/oracles.py), and a traced run wraps every listed function;
    # the run also calls the names it does not trace, such as
    # cycles.heavy_vertices and cycles.OCycle
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--tiny",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    if workload == "cycles":
        # the solvers' work counters: a search that stopped calling the
        # traced Graph.reachable_from would read 0 here
        for name in ("graph.reachable_from.calls", "cycles.find_hamilton_cycle.reach_calls",
                     "cycles.find_cycle_through.reach_calls"):
            assert result["metrics"][name]["value"] > 0, name


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_top_level_name_is_used_outside_the_tests():
    # a use is a name token, or a string that is exactly the name (the
    # tracer in bench/spans.py names what it wraps); comments and
    # docstrings do not count
    sources = sorted((ROOT / "src" / "fanheavy").glob("*.py"))
    uses = Counter()
    for path in sources + sorted((ROOT / "bench").glob("*.py")):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    uses[tok.string] += 1
                elif tok.type == tokenize.STRING and tok.string[1:-1].isidentifier():
                    uses[tok.string[1:-1]] += 1
    unused = [f"{path.stem}.{name}" for path in sources
              for name in _top_level_names(ast.parse(path.read_text()))
              if not name.startswith("__") and uses[name] < 2]
    assert unused == []


def test_every_class_member_is_used_outside_the_tests():
    # methods, properties and cached properties; a use is an attribute
    # such as `g.full_mask` or `self.kernels`, found with `ast`, so one
    # inside an f-string counts (Python 3.11 reads an f-string as a
    # single STRING token) and comments and docstrings do not
    sources = sorted((ROOT / "src" / "fanheavy").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in sources + sorted((ROOT / "bench").glob("*.py"))}
    uses = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))
    members = [(path.stem, cls.name, item.name) for path in sources
               for cls in trees[path].body if isinstance(cls, ast.ClassDef)
               for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert len(members) > 10
    unused = [".".join(member) for member in members
              if not member[2].startswith("__") and uses[member[2]] == 0]
    assert unused == []


def test_package_has_no_assert():
    # `python -O` strips asserts, so a check in the package must be explicit
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "fanheavy").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_open_names_encoding_and_newline():
    # the locale's encoding and universal newlines would make a file read
    # otherwise than stdin, which is read as strict UTF-8 split at "\n"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "fanheavy").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"
             and not {"encoding", "newline"} <= {kw.arg for kw in node.keywords}]
    assert found == []


def _fresh_json(code):
    """The JSON that `code` prints, run in a fresh interpreter that finds the
    package under src/."""
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_runtime_imports_only_the_standard_library():
    # a fresh interpreter; compare with its own start-up modules, since
    # .pth hooks (such as _distutils_hack) load some before any import
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import importlib, pkgutil, fanheavy\n"
            "for info in pkgutil.iter_modules(fanheavy.__path__):\n"
            "    importlib.import_module('fanheavy.' + info.name)\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n")
    new = set(_fresh_json(code))
    assert "fanheavy" in new
    # verify --workers imports multiprocessing only when it starts a pool
    assert "multiprocessing" not in new
    assert new - {"fanheavy"} <= sys.stdlib_module_names, new - sys.stdlib_module_names


def test_package_import_loads_no_submodule():
    # the package root re-exports nothing, so `import fanheavy` alone
    # builds no pattern, compiles no kernel and imports no submodule
    code = ("import json, sys, fanheavy\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fanheavy.'))))\n")
    assert _fresh_json(code) == []


def test_no_option_parses_with_int():
    # `int` reads any Unicode decimal digit; integer options go through
    # the ASCII-only `cli._positive_int`
    parsers = [build_parser()]
    found = []
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.type is int:
                found.append((parser.prog, action.dest))
    assert found == []


def _readme_synopsis() -> dict[str, str]:
    """Command -> its synopsis text, from the first code block under `## CLI`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    out = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "fanheavy", line
        out[words[1]] = " ".join(words[2:])
    return out


def test_readme_synopsis_matches_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = _readme_synopsis()
    assert synopsis.keys() == subparsers.keys()
    for command, sub in subparsers.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        options = {s for a in actions for s in a.option_strings}
        choices = {a.option_strings[0]: "|".join(a.choices) for a in actions if a.choices}
        line = synopsis[command]
        assert set(re.findall(r"--[\w-]+", line)) == options, command
        assert dict(re.findall(r"(--[\w-]+) ([\w-]+(?:\|[\w-]+)+)", line)) == choices, command
    # the gen line's comment quotes the caps that `cmd_gen` enforces
    gen = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("fanheavy gen "))
    assert gen.split("#", 1)[1].strip() == (
        f"K <= {GEN_MAX_N_LABELED}, or K <= {GEN_MAX_N_REDUCED} with --reduce")


def test_readme_search_count_matches_the_generator(monkeypatch):
    # the README quotes the canonical searches that building the n = 8
    # classes takes; count them in a run
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.findall(r"Building the n = 8 classes takes (\d+) canonical searches", text)
    assert len(quoted) == 1
    assert counted_generation(monkeypatch, 8)[1] == int(quoted[0])
