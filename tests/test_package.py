"""The package's public surface: its export list and the README's example."""

import importlib
import importlib.util
import re
from pathlib import Path

import balchain

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("chains", "quadratic", "sequences", "steady", "verify")


def test_package_exports_exactly_the_layers_exports():
    expected = [name for layer in LAYERS for name in getattr(balchain, layer).__all__]
    assert balchain.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(balchain, name), name
    assert not hasattr(balchain, "family")


def test_every_traced_name_is_a_public_function_of_its_layer():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.TRACED.items():
        public = spans.public_functions(importlib.import_module(f"balchain.{layer}"))
        for name in names:
            assert name in public, f"{layer}.{name}"


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
