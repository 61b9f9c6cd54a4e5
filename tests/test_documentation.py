"""Documentation-contract tests: every public item carries a docstring,
and every ``*.md`` file the code and docs name exists."""

import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro

PACKAGES = ["repro", "repro.autograd", "repro.graph", "repro.data",
            "repro.eval", "repro.train", "repro.models", "repro.core",
            "repro.serve", "repro.utils", "repro.api", "repro.obs",
            "repro.dispatch"]


def _walk_modules():
    seen = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        seen.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                seen.append(importlib.import_module(
                    f"{name}.{info.name}"))
    return seen


MODULES = _walk_modules()


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} is missing a module docstring")


def _public_classes():
    items = []
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                items.append(obj)
    return items


@pytest.mark.parametrize("cls", _public_classes(),
                         ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_public_class_has_docstring(cls):
    assert cls.__doc__ and cls.__doc__.strip(), (
        f"{cls.__module__}.{cls.__name__} is missing a docstring")


def test_public_functions_documented():
    undocumented = []
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and \
                    obj.__module__ == module.__name__:
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, (
        "functions missing docstrings: " + ", ".join(undocumented))


# --------------------------------------------------------------------- #
# doc references: every *.md file the code and docs name must exist
# --------------------------------------------------------------------- #

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: trees and files whose ``*.md`` references are checked
REFERENCE_SOURCES = ("src", "tests", "benchmarks", "examples", "docs",
                     "README.md", "API.md")

#: ``*.md`` names that are program output, not repo files
GENERATED_MD = frozenset({"leaderboard.md"})

_MD_REFERENCE = re.compile(r"[\w./-]*[\w-]\.md\b")


def _reference_files():
    for source in REFERENCE_SOURCES:
        path = os.path.join(REPO_ROOT, source)
        if os.path.isfile(path):
            yield path
        for root, dirs, files in os.walk(path):
            dirs[:] = [d for d in dirs
                       if not d.startswith(".") and d != "__pycache__"]
            for name in files:
                if name.endswith((".py", ".md")):
                    yield os.path.join(root, name)


def _repo_md_names():
    names = set()
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if not d.startswith(".")]
        names.update(name for name in files if name.endswith(".md"))
    return names


def _resolves(reference, md_names):
    """Path-qualified names resolve from the repo root, bare ones anywhere."""
    if "/" in reference:
        return os.path.isfile(os.path.join(REPO_ROOT, reference))
    return reference in md_names


def test_markdown_references_exist():
    md_names = _repo_md_names()
    dangling = []
    for path in _reference_files():
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                # a literal "\n" escape (mermaid labels) is not part of a name
                for ref in _MD_REFERENCE.findall(line.replace("\\n", " ")):
                    if os.path.basename(ref) in GENERATED_MD:
                        continue
                    if not _resolves(ref, md_names):
                        rel = os.path.relpath(path, REPO_ROOT)
                        dangling.append(f"{rel}:{lineno}: {ref}")
    assert not dangling, "dangling *.md references:\n" + "\n".join(dangling)
