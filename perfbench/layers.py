"""Per-layer host attribution from a ``cProfile`` run.

The profiler hook is installed from the benchmark's own files, so the
program is measured from outside with no source edits. Attribution
rules:

* a Python function's self time goes to the ``src/repro/<layer>``
  package that defines it (``protocol/ft`` is its own layer, ``obs``
  counts with ``metrics``, top-level modules with ``other``);
* C builtins and code outside ``src/repro`` (the standard library,
  NumPy) are charged to the layer that called them, split by the
  profiler's per-caller self time and followed up the caller chain
  until a ``repro`` function is reached;
* a call whose caller sits in another layer counts as one boundary
  call into the callee's layer; a builtin caller (a generator's
  ``send``) stands for the layers that called it, in the same shares.

The benchmark's own code, ``repro``'s top-level modules and code with
no ``repro`` caller at all count as ``other``.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Optional

#: Reported layers, in report order. Metric prefix -> package path.
LAYERS = {
    "sim": "sim",
    "net": "net",
    "memory": "memory",
    "protocol": "protocol",
    "ft": "protocol/ft",
    "verify": "verify",
    "metrics": "metrics",
    "apps": "apps",
    "cluster": "cluster",
    "harness": "harness",
    "other": None,
}

#: Packages reported under another layer's name.
_ALIASES = {"obs": "metrics"}

#: ``repro.memory.diff`` entry points whose calls and inclusive time
#: are reported.
DIFF_FUNCTIONS = {"compute": "compute_diff", "apply": "apply_diff"}


def layer_of(filename: str, root: str) -> Optional[str]:
    """The layer of a profiled source file, ``None`` outside the
    ``repro`` package directory ``root`` (which ends in a separator)."""
    if filename == "~":   # builtins
        return None
    path = os.path.realpath(filename)
    if not path.startswith(root):
        return None
    parts = path[len(root):].split(os.sep)
    if len(parts) == 1:
        return "other"
    if parts[:2] == ["protocol", "ft"]:
        return "ft"
    package = _ALIASES.get(parts[0], parts[0])
    return package if package in LAYERS else "other"


def attribute(profile, package_dir: str) -> dict:
    """Self seconds and boundary calls per layer, plus diff-function
    call counts and inclusive seconds, from a ``cProfile.Profile``."""
    stats = pstats.Stats(profile).stats
    root = os.path.realpath(package_dir) + os.sep
    own = {key: layer_of(key[0], root) for key in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def caller_shares(key, stack=()) -> Dict[str, float]:
        """Fractions of an outside function's self time per layer."""
        if own.get(key) is not None:
            return {own[key]: 1.0}
        if key in shares:
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if key in stack or not callers or total <= 0.0:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            for layer, frac in caller_shares(caller,
                                             stack + (key,)).items():
                out[layer] += frac * entry[2] / total
        shares[key] = dict(out)
        return shares[key]

    self_s: Dict[str, float] = defaultdict(float)
    outside_s = 0.0
    boundary: Dict[str, float] = defaultdict(float)
    diff = {name: {"calls": 0, "s": 0.0} for name in DIFF_FUNCTIONS}
    for key, (_cc, nc, tt, ct, callers) in stats.items():
        layer = own[key]
        if layer is None:
            outside_s += tt
            for caller, entry in callers.items():
                for owner, frac in caller_shares(caller).items():
                    self_s[owner] += frac * entry[2]
            if not callers:
                self_s["other"] += tt
            continue
        self_s[layer] += tt
        for caller, entry in callers.items():
            same = caller_shares(caller).get(layer, 0.0)
            boundary[layer] += entry[1] * (1.0 - same)
        if key[0].endswith(os.path.join("memory", "diff.py")):
            for name, func in DIFF_FUNCTIONS.items():
                if key[2] == func:
                    diff[name]["calls"] += nc
                    diff[name]["s"] += ct
    return {
        "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
        "boundary_calls": {layer: round(boundary.get(layer, 0.0))
                           for layer in LAYERS},
        "outside_s": outside_s,
        "diff": diff,
    }
