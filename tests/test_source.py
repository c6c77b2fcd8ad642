"""Checks on the package source itself, read with `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sentsimp"


def unused_imports(source):
    """Names bound by the module-level imports of source that the module
    neither reads nor lists in `__all__`. A name read only inside a string
    annotation counts as unused; the package quotes only its own classes."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_import_finder_sees_reads_and_exports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom a import B, C, D\n"
        "__all__ = ['C']\n"
        "def f(x) -> np.ndarray:\n    return B\n"
    )
    assert unused_imports(source) == ["D (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def splitlines_calls(source):
    """Line numbers of the `.splitlines()` calls in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]


def test_splitlines_finder_sees_calls_only():
    source = (
        "lines = text.splitlines()\n"
        "rows = open(p).read().splitlines(True)\n"
        "doc = 'text.splitlines()'\n"
        "split = str.splitlines\n"
    )
    assert splitlines_calls(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_breaks_lines_only_through_split_lines(path):
    """str.splitlines also breaks at U+2028, a form feed and other
    characters; every reader uses `corpus.split_lines` instead."""
    assert splitlines_calls(path.read_text(encoding="utf-8")) == []


def module_reads(source, module):
    """Names that source takes from `sentsimp.<module>`: those its imports
    name, and the attributes it reads of a name bound to the module."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"sentsimp.{module}"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "sentsimp"):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == f"sentsimp.{module}" and alias.asname}
    reads = (n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name))
    return names | {n.attr for n in reads if n.value.id in modules}


def test_autodiff_read_finder_sees_imports_and_module_attributes():
    source = (
        "from . import autodiff as ad\nfrom .autodiff import Tensor, log_softmax\n"
        "import sentsimp.autodiff as sa\nfrom . import corpus\n"
        "def f(x):\n    return ad.affine(x, sa.tanh(x), corpus.stack) + ad.take_rows\n"
        "doc = 'ad.nll'\n"
    )
    assert module_reads(source, "autodiff") == {"Tensor", "log_softmax", "affine", "tanh", "take_rows"}
    assert module_reads(source, "corpus") == {"stack"}


def public_functions_no_other_module_reads(module):
    """The public module-level functions of `sentsimp.<module>` that no
    other module of the package reads. One that only the tests use
    belongs in the test oracles."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    public = {n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    read = set()
    for path in SRC.glob("*.py"):
        if path.name != f"{module}.py":
            read |= module_reads(path.read_text(encoding="utf-8"), module)
    return public - read


def test_every_public_autodiff_function_is_read_by_another_package_module():
    # perfbench's tracer reads active_tape, to tell a taped call from an untaped one
    assert sorted(public_functions_no_other_module_reads("autodiff")) == ["active_tape"]


def test_every_public_model_function_is_read_by_another_package_module():
    assert sorted(public_functions_no_other_module_reads("model")) == []


@pytest.mark.parametrize("module", ["corpus", "lexsub", "pipeline"])
def test_every_public_function_is_read_by_another_package_module(module):
    assert sorted(public_functions_no_other_module_reads(module)) == []


def callers_of(source, name):
    """For each call `name(...)` or `x.name(...)` in source, the dotted name
    of the functions and classes around it ("" at module level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if func.id == name if isinstance(func, ast.Name) else getattr(func, "attr", None) == name:
                    found.append(".".join(where))
            visit(child, where)

    visit(ast.parse(source), [])
    return found


def test_caller_finder_names_the_enclosing_function():
    source = (
        "x = A()\n"
        "class K:\n    def m(self):\n        return ad.A(f(A))\n"
        "def g():\n    def h():\n        return A\n    return 'A()', B(A())\n"
    )
    assert callers_of(source, "A") == ["", "K.m", "g"]


def test_decoder_stage_is_built_only_by_model_decoder_stage():
    """`model.decoder_stage` is the one place that prepares a decoder
    stage; training, the teacher-forced prefix and the beam take theirs
    from it, so a loss or a search prepares its source once per decoder."""
    sites = [
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in callers_of(path.read_text(encoding="utf-8"), "DecoderStage")
    ]
    assert sites == ["model.decoder_stage"]


def test_take_rows_looks_up_only_the_source_and_the_scored_rows():
    """The encoder looks up its source's embedding rows, and a training loss
    picks the decoder rows whose predictions it scores. A decoder's input
    rows come from its stage's own lookup inside `decoder_scan`, so a step
    cannot read one decoder's embedding on another decoder's stage."""
    sites = [
        f"{path.stem}.{where}"
        for path in sorted(SRC.glob("*.py"))
        for where in callers_of(path.read_text(encoding="utf-8"), "take_rows")
    ]
    assert sites == ["model.encode", "training.training_loss.stage_logits"]
