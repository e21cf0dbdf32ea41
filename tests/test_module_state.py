"""No state outlives a document.

Each decision keeps what it learns on objects built from its own document
(a BucketMeasure, the decision's sides and their shared tail counts), so
deciding documents, once or again, leaves every module-level dict, list and
set of the package at the length it had.
"""

import importlib
import pkgutil
from pathlib import Path

import opequiv
from opequiv import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Tables of pure arithmetic, keyed by no document: the factorials n!, and per
# base delta the indices floor(log_{1/delta} n!) of the sparse rule. They
# only grow, and every later decision reads the same values from them.
PURE_TABLES = {"opequiv.tails._FACTORIALS", "opequiv.tails._SPARSE_CACHE"}


def module_containers() -> dict:
    modules = [opequiv] + [
        importlib.import_module(f"opequiv.{info.name}")
        for info in pkgutil.iter_modules(opequiv.__path__)
        if info.name != "__main__"
    ]
    return {
        f"{module.__name__}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }


def test_deciding_documents_twice_grows_no_module_container():
    # shared-generator/bucket-20000.json is left out: it takes about 12 s.
    paths = [
        path
        for name in ("window-scan", "tail-certify")
        for path in sorted((FIXTURES / name).glob("*.json"))
        if path.name != "expected.json"
    ]
    assert len(paths) == 28 + 15
    containers = module_containers()
    assert "opequiv.cli._PARAM_OPTIONS" in containers and PURE_TABLES <= set(containers)
    before = {name: len(value) for name, value in containers.items()}
    for _ in range(2):
        for path in paths:
            cli.run("decide", cli.parse_spec(path.read_text(encoding="utf-8")))
    grew = {
        name: (before[name], len(value))
        for name, value in containers.items()
        if len(value) > before[name] and name not in PURE_TABLES
    }
    assert not grew
