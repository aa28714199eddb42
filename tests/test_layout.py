"""Layout of the package: what the benchmark reaches, what modules share,
and what the package exports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import rgbpzeros
from rgbpzeros import make_params
from rgbpzeros.expansion import solve_tau0

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rgbpzeros"
PUBLIC_API_MAX = 19


def _resolve(module, dotted):
    obj = sys.modules[module]
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_exist():
    # the benchmark's tracer rebinds functions and methods by module path
    # and dotted name, and reads solve_tau0's Newton count as out[2]; a
    # rename would otherwise show only when the benchmark runs
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = {node.targets[0].id: ast.literal_eval(node.value)
               for node in tree.body if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Name)
               and node.targets[0].id in ("SPAN_TARGETS", "COUNT_TARGETS")}
    assert set(targets) == {"SPAN_TARGETS", "COUNT_TARGETS"}
    for module, attr, *_ in targets["SPAN_TARGETS"] + targets["COUNT_TARGETS"]:
        importlib.import_module(module)
        assert callable(_resolve(module, attr)), f"{module}.{attr}"
    out = solve_tau0(make_params(40, 2.3), 3)
    assert isinstance(out, tuple) and len(out) == 3
    assert isinstance(out[2], int) and out[2] >= 1


def test_benchmark_targets_resolve(monkeypatch):
    # perfbench/ reaches the program by module path and attribute name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    # every SW.x / EX.x / LG.x / PA.x / cli.x the workloads use
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("SW", "EX", "LG", "PA", "cli")}
    assert ("cli", "main") in used and ("SW", "sweep") in used
    for holder, attr in sorted(used):
        assert callable(getattr(getattr(workloads, holder), attr)), f"{holder}.{attr}"
    # fault injection rebinds these by name
    assert callable(workloads.cli.sweep) and callable(workloads.cli.approx_all)


def test_no_private_imports_between_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from .{node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found, found


def test_public_api_is_small():
    assert len(rgbpzeros.__all__) <= PUBLIC_API_MAX
    for name in rgbpzeros.__all__:
        assert hasattr(rgbpzeros, name), name


def test_no_unused_imports():
    # no linter runs in CI; an import no code reads is dead weight
    found = []
    for path in [*sorted(PACKAGE.glob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.parent.name}/{path.name}: {name}"
                  for name in sorted(imported - used)]
    assert not found, found


def test_cli_import_is_light():
    # mpmath is imported where a computation needs it; scipy never
    code = ("import sys, rgbpzeros.cli; "
            "print(sorted({'scipy', 'mpmath'} & set(sys.modules)))")
    src = Path(rgbpzeros.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]", out.stdout
