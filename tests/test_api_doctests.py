"""Tier-1 doctest lane for the ``repro.api`` facade and autograd registry.

Every public symbol of the facade — and of the autograd primitive/VJP
registry surface — carries a doctested example; this module executes
them all as part of the fast suite, so the examples in the docstrings
can never rot.  The same examples run standalone via::

    PYTHONPATH=src python -m pytest --doctest-modules src/repro/api
    PYTHONPATH=src python -m pytest --doctest-modules \\
        src/repro/autograd/primitives.py src/repro/autograd/fused.py
"""

import doctest
import importlib

import pytest

API_MODULES = ("repro.api", "repro.api.spec", "repro.api.experiment",
               "repro.api.rundir", "repro.api.sweep",
               "repro.autograd.primitives", "repro.autograd.fused")

#: facade symbols that must ship a doctested example, per the docs
#: contract (module name -> attribute)
REQUIRED_EXAMPLES = (
    ("repro.api.spec", "ExperimentSpec"),
    ("repro.api.experiment", "Experiment"),
    ("repro.api.experiment", "RunResult"),
    ("repro.api.experiment", "recommend_topk"),
    ("repro.api.sweep", "SweepRunner"),
    ("repro.api.sweep", "run_sweep"),
    ("repro.api.sweep", "expand_grid"),
    ("repro.autograd.primitives", "primitive"),
    ("repro.autograd.primitives", "defvjp"),
    ("repro.autograd.primitives", "fused_kernels"),
    ("repro.autograd.fused", "fused_bpr_loss"),
    ("repro.autograd.fused", "light_propagate"),
)

OPTION_FLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE


@pytest.mark.parametrize("name", API_MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, optionflags=OPTION_FLAGS,
                             verbose=False)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {name}")


@pytest.mark.parametrize("module_name,symbol", REQUIRED_EXAMPLES,
                         ids=[f"{m}.{s}" for m, s in REQUIRED_EXAMPLES])
def test_public_symbol_has_doctested_example(module_name, symbol):
    obj = getattr(importlib.import_module(module_name), symbol)
    examples = [test for test in doctest.DocTestFinder().find(obj)
                if test.examples]
    assert examples, (
        f"{module_name}.{symbol} has no doctested example in its "
        "docstring (the repro.api docs contract requires one)")
