"""Package-wide checks: the benchmark tracer still finds every function it
patches, and no module keeps an import it never uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "graphrenorm"

# (module file, name) pairs imported on purpose without a use in the module
REEXPORTS = {
    # read as lattice.divergent_elements (see the comment at the import)
    ("lattice.py", "divergent_elements"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    """Every span target of the benchmark tracer exists in the package, so
    renaming or deleting one fails here rather than in a benchmark run."""
    tracer = _load_tracer()
    modules = {mod: importlib.import_module(f"{tracer.PACKAGE}.{mod}")
               for mod in tracer.MODULES}

    def current(mod, attr):
        owner = modules[mod]
        if "." in attr:
            cls_name, attr = attr.split(".")
            return getattr(owner, cls_name).__dict__[attr]
        return getattr(owner, attr)

    targets = [(mod, attr) for mod, attr, _name, _count in tracer.TARGETS]
    targets.append(tracer.MC_INTEGRATE[:2])
    before = {t: current(*t) for t in targets}
    t = tracer.Tracer()
    t.install()
    try:
        for target, orig in before.items():
            patched = current(*target)
            assert patched is not orig, target
            assert patched.__wrapped__ is orig, target
    finally:
        t.uninstall()
    for target, orig in before.items():
        assert current(*target) is orig, target


def _imported_names(tree: ast.Module):
    """(name bound, line) of every module-level import but __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree)
              if name not in used and (path.name, name) not in REEXPORTS]
    assert not unused, f"{path.name} imports but never uses {unused}"
