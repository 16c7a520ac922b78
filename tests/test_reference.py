"""The brute-force references stay independent of the fast modules.

`binomial_ci.reference` must not read the packed lanes, caches or kernels it
checks, so its imports, inside functions too, are parsed here rather than
trusted.
"""

import ast
import sys
from pathlib import Path

import binomial_ci

PACKAGE = Path(binomial_ci.__file__).parent


def imported_modules(name):
    return imports((PACKAGE / f"{name}.py").read_text())


def imports(source):
    """The modules a package module's source imports, anywhere in its body:
    package modules as ".name", others by their top-level name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                out.add("." + rest.partition(".")[0] if top == "binomial_ci" and rest else top)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if module:
                    out.add("." + module.partition(".")[0])
                else:
                    out.update("." + alias.name for alias in node.names)
            else:
                top, _, rest = module.partition(".")
                if top == "binomial_ci":
                    out.update({"." + rest.partition(".")[0]} if rest else {"." + a.name for a in node.names})
                else:
                    out.add(top)
    return out


def test_the_import_parser_sees_every_form_of_import():
    source = """
import json, binomial_ci.keys
from . import dual as d
from .oracle import _pairing
from binomial_ci import graph
from binomial_ci.linalg import rank_of

def f():
    from .rewrite import certificate
    import os.path

class C:
    def g(self):
        from .algebra.sub import x
"""
    expected = {"json", ".keys", ".dual", ".oracle", ".graph", ".linalg", ".rewrite", "os", ".algebra"}
    assert imports(source) == expected
    assert ".reference" in imported_modules("selftest")


def test_reference_imports_only_the_stdlib_algebra_family_and_linalg():
    for module in imported_modules("reference"):
        if module.startswith("."):
            assert module in {".algebra", ".family", ".linalg"}, module
        else:
            assert module == "__future__" or module in sys.stdlib_module_names, module


def test_only_the_package_and_selftest_import_reference():
    importers = {path.stem for path in PACKAGE.glob("*.py") if ".reference" in imported_modules(path.stem)}
    assert importers == {"__init__", "selftest"}


def test_oracle_imports_nothing_from_dual():
    assert ".dual" not in imported_modules("oracle")


MOVED = {
    "reference": {
        "HessianMatrix",
        "hessian",
        "dense_rank",
        "action_image",
        "falling_product",
        "catalecticant_rows",
        "macaulay_rows",
        "polynomial_in_ideal",
    },
    "algebra": {"normalize_terms", "numeric_form", "Exponents", "CONTRACTION", "DIFFERENTIATION", "check_convention"},
}


def defined_names(name):
    """Names a module binds at its top level by def, class or assignment."""
    out = set()
    for node in ast.parse((PACKAGE / f"{name}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def test_moved_names_are_defined_only_in_their_home():
    for path in PACKAGE.glob("*.py"):
        defined = defined_names(path.stem)
        for home, names in MOVED.items():
            if path.stem == home:
                assert names <= defined
            else:
                assert not names & defined, (path.stem, names & defined)


def test_every_public_name_resolves():
    for name in binomial_ci.__all__:
        assert getattr(binomial_ci, name) is not None, name
    assert binomial_ci.hessian is binomial_ci.HessianMatrix
    assert binomial_ci.dual.CONTRACTION == binomial_ci.CONTRACTION == "contraction"
