"""The benchmark's span recorder can wrap every attribute it names.

``perfbench/spans.py`` replaces ``(module, attribute)`` pairs with timing
wrappers in traced runs, so each pair must keep resolving when the
package changes.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    missing = [
        (mod, attr)
        for mod, attr, _ in load_spans().WRAPS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
