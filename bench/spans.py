"""Span tracing of qsimp from outside the program.

`Tracer.install` wraps each public function in `WRAPPED` and rebinds the
wrapper in every qsimp module namespace that holds the original, since
`from .intmat import det` gives `lattice`, `chain` and `simplicity` their
own binding of `det`. Nothing in the package source changes, and
`Tracer.remove` restores every binding.

A span is (name, start_ns, end_ns, parent index, job id). Spans stay in
memory until the pass ends. A layer's self time is the time inside its
spans not covered by their child spans; adding the time outside every span
gives back the wall time of the pass exactly.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

WRAPPED = {
    "cli": ("parse_job", "run"),
    "simplicity": ("decide", "is_dilation", "normalize"),
    "chain": ("decide_density", "compute_chain", "step_pos"),
    "lattice": ("join", "pushforward", "preimage", "dual_annihilator",
                "dual_lattice", "sublattice_transform"),
    "intmat": ("hnf_rows", "det", "adjugate", "snf", "unimodular_inverse"),
    "presentation": ("present",),
    "finite_oracle": ("density_1d",),
}
LAYERS = tuple(WRAPPED)
PATHS = ("R1", "R3", "R4", "R2R4", "R5-Dense", "R5-NotDense", "R6", "other")


def verdict_path(status: str, rules) -> str:
    """The cascade exit of a SimplicityVerdict, from its fired rules."""
    names = [rule for rule, _ in rules]
    last = names[-1] if names else ""
    if last.startswith("R1"):
        return "R1"
    if last.startswith("R3"):
        return "R3"
    if last.startswith("R4"):
        return "R2R4" if any(n.startswith("R2") for n in names) else "R4"
    if last.startswith("R5"):
        return "R5-Dense" if status == "Simple" else "R5-NotDense"
    if last.startswith("R6"):
        return "R6"
    return "other"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.paths: Counter = Counter()
        self.density_decided = 0
        self.max_denom_bits = 0
        self.output_bytes = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _observe(self, name: str, result) -> None:
        if name == "cli.run":
            self.output_bytes += len(result[1].encode()) + 1
        elif name == "simplicity.decide":
            self.paths[verdict_path(result.status, result.rules_fired)] += 1
        elif name == "chain.decide_density":
            self.density_decided += result.status != "Unknown"
        elif name.startswith("lattice.") and hasattr(result, "denom"):
            self.max_denom_bits = max(self.max_denom_bits, result.denom.bit_length())

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            self._observe(name, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "qsimp" or key.startswith("qsimp.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"qsimp.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def summary(self, wall_ns: int, factor: float = 1.0) -> dict:
        """Per-layer figures of one traced pass lasting wall_ns; times are
        in seconds multiplied by `factor`."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        incl_ns: Counter = Counter()
        self_ns = dict.fromkeys(LAYERS, 0)
        top_ns = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name.split(".")[0]] += end - start - child_ns[i]
            if parent < 0:
                top_ns += end - start
            if not self._nested_in_same(i, name):
                incl_ns[name] += end - start
        s = factor / 1e9
        return {
            "calls": calls,
            "incl_s": {k: v * s for k, v in incl_ns.items()},
            "self_s": {k: v * s for k, v in self_ns.items()},
            "outside_s": (wall_ns - top_ns) * s,
            "wall_s": wall_ns * s,
        }

    def _nested_in_same(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start},{end},{parent},{job}\n")
