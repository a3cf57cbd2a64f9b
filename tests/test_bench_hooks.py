"""The benchmark's layer hooks name attributes the package still has.

bench/spans.py times each layer by swapping a hooked module attribute
(or Simulation method) for a wrapper; a hook whose attribute is gone is
skipped and its metrics read 0.  A rename in the package must fail here
rather than silently zero a layer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


HOOKS = _hooks()


@pytest.mark.parametrize("owner_path, attr, name", HOOKS,
                         ids=[name for _, _, name in HOOKS])
def test_every_benchmark_hook_finds_its_attribute(owner_path, attr, name):
    # looked up as Tracer.install looks it up: the owner's own attribute,
    # not one it inherits
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert vars(owner).get(attr) is not None, (
        f"{name}: {owner_path} has no attribute {attr!r}")
