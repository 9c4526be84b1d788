"""The benchmark's per-layer hooks still reach the code they time.

``perfbench/child.py`` times each layer by replacing a module attribute
(``LAYER_ENTRY_POINTS``) with a wrapper.  A refactor that binds one of
those names before the wrapper is installed (a module-level table of
check functions, an alias, a ``from`` import in the caller) leaves the
wrapper uncalled, and the layer's metric reads zero.  Here every entry
point is wrapped the same way, ``certify-all --level full`` is run, and
each wrapper must have been called.  The child file is only read.
"""

import importlib.util
from pathlib import Path

from trioperad import cli

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_certify_all_calls_every_layer_entry_point(monkeypatch):
    child = _load_child()
    assert len(child.LAYER_ENTRY_POINTS) == 18
    calls = [0] * len(child.LAYER_ENTRY_POINTS)

    def recording(k, fn):
        def passthrough(*args, **kwargs):
            calls[k] += 1
            return fn(*args, **kwargs)

        return passthrough

    for k, (module, attr, _, _) in enumerate(child.LAYER_ENTRY_POINTS):
        monkeypatch.setattr(module, attr, recording(k, getattr(module, attr)))
    assert cli.certify_all("full")["passed"]
    uncalled = [
        f"{module.__name__}.{attr}"
        for (module, attr, _, _), n in zip(child.LAYER_ENTRY_POINTS, calls)
        if n == 0
    ]
    assert uncalled == []
    assert all(hasattr(f, "cache_info") for f in child.PRODUCT_CACHES)
