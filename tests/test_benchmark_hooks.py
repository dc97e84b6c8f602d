"""The benchmark's layer spans wrap gvand functions by name.

perfbench/layers.py patches every (module, attribute) in its WRAPPED
table; a name missing from gvand would break the benchmark run, so it
fails here first.  The benchmark file is only read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    missing = []
    for modname, attr, _ in layers.WRAPPED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{modname}.{attr}")
    assert missing == []
