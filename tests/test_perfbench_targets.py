"""The benchmark's traced run wraps names of this package (perfbench/layers.py).
A renamed or deleted one fails here, in the main suite, as well as in
perfbench's own tests."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers
from perfbench.trace import lookup


def test_every_perfbench_wrap_target_resolves_to_a_callable():
    missing = []
    for owner, attr, *_ in layers.targets():
        try:
            found = callable(lookup(owner, attr))
        except (AttributeError, KeyError):
            found = False
        if not found:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert missing == []
