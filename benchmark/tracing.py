"""Per-layer counters and spans, installed by wrapping module attributes.

``cli``, ``zwm`` and ``qmetric`` call each other's public functions through
module globals (``onephoton.validate_density``, ``indist`` inside
``qmetric``), so replacing the attribute on the module that is looked up is
enough to see every call.  ``qmetric`` imports ``indist`` by name, so both
``quasiset.indist`` and ``qmetric.indist`` are wrapped and feed one counter.
Constructors and methods are wrapped on the class, which covers every import
site at once.

Hot functions only count calls.  Coarse ones also record a span (name,
parent, start, end) on the process CPU clock, kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter
from importlib import import_module

#: Layer name -> attribute paths (module[.Class].attr) that feed it.
SPANS = {
    "cli.main": ["cli.main"],
    "cli.parse_universe": ["cli.parse_universe"],
    "cli.parse_pid_table": ["cli.parse_pid_table"],
    "onephoton.fringe_scan": ["onephoton.fringe_scan"],
    "zwm.sweep_transmission": ["zwm.sweep_transmission"],
    "quasiset.Universe": ["quasiset.Universe.__init__"],
    "quasiset.permutation_theorem_check": ["quasiset.permutation_theorem_check"],
    "quasiset.indist_class": ["quasiset.indist_class"],
    "quasiset.check_equivalence_axioms": ["quasiset.check_equivalence_axioms"],
    "qmetric.from_pid_table": ["qmetric.from_pid_table"],
    "qmetric.differentiation_space": ["qmetric.differentiation_space"],
    "qmetric.verify_qm_axioms": ["qmetric.verify_qm_axioms"],
    "qmetric.degree": ["qmetric.degree"],
}
COUNTS = {
    "onephoton.validate_density": ["onephoton.validate_density"],
    "onephoton.mandel_decompose": ["onephoton.mandel_decompose"],
    "zwm.zwm_signal_state": ["zwm.zwm_signal_state"],
    "zwm.whichway_coincidence_prob": ["zwm.whichway_coincidence_prob"],
    "quasiset.indist": ["quasiset.indist", "qmetric.indist"],
    "quasiset.ext_identity": ["quasiset.ext_identity"],
    "qmetric.QuasiMetricSpace.distance": ["qmetric.QuasiMetricSpace.distance"],
}


def _owner(path: str):
    module, *attrs = path.split(".")
    owner = import_module(f"indist.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1]


class Tracer:
    """Wraps the layer functions while active; restores them on exit."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return wrapper

    def __enter__(self) -> "Tracer":
        for table, wrap in ((SPANS, self._spanned), (COUNTS, self._counted)):
            for name, paths in table.items():
                for path in paths:
                    owner, attr = _owner(path)
                    fn = owner.__dict__[attr]
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def metrics(self, factor: float) -> dict[str, float]:
        """``<layer>.calls`` for every layer and ``<layer>.self_ms`` for spans.

        Span times are CPU seconds of this process; ``factor`` turns them
        into reference seconds (see ``hostspeed.py``).
        """
        out = {f"{name}.calls": float(self.calls[name]) for name in COUNTS}
        self_s = dict.fromkeys(SPANS, 0.0)
        calls = Counter()
        for name, parent, start, end in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        for name in SPANS:
            out[f"{name}.calls"] = float(calls[name])
            out[f"{name}.self_ms"] = self_s[name] * factor * 1e3
        return out
