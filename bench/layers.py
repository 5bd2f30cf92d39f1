"""Per-layer tracing of the prover, installed from outside its source.

`Tracer.install()` replaces each traced function by a timing wrapper in
every `nonterm` module that holds a binding to it.  Modules import these
functions by name (`from .powers import pattern_mgu`), so patching the
defining module alone would miss most calls; `pattern_rule_key` imports
`powers.power_form` at call time, which the patched `nonterm.powers`
attribute covers.  `PatternRuleSet.add` is wrapped on the class.

Each wrapped call records one span (layer, start, end, parent span, query
id) in flat in-memory arrays; `write_spans` dumps them when the run ends.
A layer's self time is its spans' durations minus the time of wrapped
calls nested directly inside them.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Optional

# (layer name, module, attribute, failure test on the result or None).
# The failure test marks a call that returned no usable result: a failed
# unifier, a non-commuting pair, a duplicate family, no pumping data.
LAYERS: tuple[tuple[str, str, str, Optional[Callable[[object], bool]]], ...] = (
    ("cli.analyze_file", "nonterm.cli", "analyze_file", None),
    ("program.parse", "nonterm.program", "parse_program", None),
    ("detect.prove", "nonterm.detect", "prove", None),
    ("pattern.initial_rules", "nonterm.pattern", "initial_rules", None),
    ("unfold.saturate", "nonterm.unfold", "saturate", None),
    ("unfold.rename", "nonterm.unfold", "rename_pattern_rule", None),
    ("terms.fresh_renaming", "nonterm.terms", "fresh_renaming", None),
    ("terms.commutes", "nonterm.terms", "commutes", lambda r: r is False),
    ("unfold.add", "nonterm.unfold", "PatternRuleSet.add", lambda r: r is False),
    ("pattern.rule_key", "nonterm.pattern", "pattern_rule_key", None),
    ("binrules.canonical_key", "nonterm.binrules", "canonical_key", None),
    ("powers.power_form", "nonterm.powers", "power_form", lambda r: r is None),
    ("powers.pattern_mgu", "nonterm.powers", "pattern_mgu", lambda r: r is None),
    ("powers.pattern_form", "nonterm.powers", "pattern_form", lambda r: r is None),
    ("terms.mgu", "nonterm.terms", "mgu", lambda r: r is None),
    ("detect.match_pumping", "nonterm.detect", "match_pumping", lambda r: r is None),
    ("detect.check_pumps", "nonterm.detect", "check_pumps", lambda r: r is False),
)

NAMES = tuple(layer[0] for layer in LAYERS)

# Totals read off results: metric name -> (layer, value of one result).
TALLIES: dict[str, tuple[str, Callable[[object], int]]] = {
    "pattern.seed_families": ("pattern.initial_rules", len),
    "unfold.rounds": ("unfold.saturate", lambda result: result[1].iterations),
}


class Tracer:
    """Span recorder for one process; install, run queries, uninstall."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.query_id = -1
        self.tally = dict.fromkeys(TALLIES, 0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nonterm"]
        for idx, (_, modname, attr, _) in enumerate(LAYERS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(idx, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(idx, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _patch(self, owner: object, key: str, wrapped: object) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        layer, parent, query, start, end = self.layer, self.parent, self.query, self.start, self.end
        failed = self.failed
        stack = self._stack
        name, _, _, is_failure = LAYERS[idx]
        tallies = [(metric, value) for metric, (layer_name, value) in TALLIES.items() if layer_name == name]
        tracer = self

        def traced(*args, **kwargs):
            span = len(layer)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            query.append(tracer.query_id)
            start.append(0.0)
            end.append(0.0)
            failed.append(0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if is_failure is not None and is_failure(result):
                failed[span] = 1
            for metric, value in tallies:
                tracer.tally[metric] += value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------

    def spans(self) -> int:
        return len(self.layer)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Calls, failures and self seconds per layer over spans [lo, hi).

        A window must hold whole queries, so no span in it has a parent
        before `lo`.
        """
        hi = len(self.layer) if hi is None else hi
        n_layers = len(LAYERS)
        calls = [0] * n_layers
        fails = [0] * n_layers
        self_s = [0.0] * n_layers
        nested = [0.0] * (hi - lo)
        # Children follow their parent, so walking backwards completes each
        # span's nested time before the span itself is read.
        for span in range(hi - 1, lo - 1, -1):
            dur = self.end[span] - self.start[span]
            p = self.parent[span]
            if p >= 0:
                nested[p - lo] += dur
            idx = self.layer[span]
            calls[idx] += 1
            fails[idx] += self.failed[span]
            self_s[idx] += dur - nested[span - lo]
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}_calls"] = calls[idx]
            out[f"{name}_fail"] = fails[idx]
            out[f"{name}_self_s"] = self_s[idx]
        return out

    def write_spans(self, path, lo: int, hi: int) -> None:
        """Spans [lo, hi), one line each: query, span, parent, layer, start, end, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query\tspan\tparent\tlayer\tstart_s\tend_s\tfailed\n")
            for i in range(lo, hi):
                fh.write(
                    f"{self.query[i]}\t{i}\t{self.parent[i]}\t{NAMES[self.layer[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.failed[i]}\n"
                )
