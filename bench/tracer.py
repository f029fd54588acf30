"""Per-layer tracing from outside the package.

The tracer replaces the public functions of each germlab module with
wrappers that record a span (name, start, end, parent, case id) per call.
Modules import functions by name, so every module attribute bound to a
wrapped function is replaced, and restored on uninstall.  Self time is a
span's duration minus the time its child spans cover.  Spans stay in memory
and are written out when the run ends.

The budget meter reads reduction steps without a per-step hook: it keeps
each `ideals.Budget` created during a case and sums initial minus remaining.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "rings",
    "orders",
    "parsing",
    "ideals",
    "invariants",
    "le",
    "polar",
    "verifier",
    "stratified",
    "scenario",
    "cli",
)
# called hundreds of thousands of times inside reduction loops: counted, no span
COUNT_ONLY = {"orders.leading_term"}
# monomial and exponent-tuple helpers below any layer boundary worth a span
SKIP = {
    "orders.leading_monomial",
    "orders.ecart",
    "rings.mono_mul",
    "rings.mono_divides",
    "rings.mono_div",
    "rings.mono_lcm",
}
METHODS = (("ideals", "IdealPresentation", "standard_basis"), ("rings", "Poly", "substitute"))

# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = [
    ("verifier.check_hypotheses.calls", "count", "lower"),
    ("verifier.build_deformation.self_ms", "ms", "lower"),
    ("verifier.verify_gap_stability.self_ms", "ms", "lower"),
    ("verifier.resolve_linear_form.self_ms", "ms", "lower"),
    ("verifier.export_dataset.self_ms", "ms", "lower"),
    ("polar.intersection_number.calls", "count", "lower"),
    ("polar.relative_polar_ideal.self_ms", "ms", "lower"),
    ("polar.iomdin_threshold.calls", "count", "lower"),
    ("ideals.dim_at_origin.calls", "count", "lower"),
    ("ideals.IdealPresentation.standard_basis.calls", "count", "lower"),
    ("ideals.IdealPresentation.standard_basis.hit_ratio", "ratio", "higher"),
    ("ideals.saturate_single.calls", "count", "lower"),
    ("ideals.saturate_single.self_ms", "ms", "lower"),
    ("ideals.colon_single.calls", "count", "lower"),
    ("ideals.intersect.calls", "count", "lower"),
    ("ideals.intersect.self_ms", "ms", "lower"),
    ("ideals.saturate.self_ms", "ms", "lower"),
    ("ideals.standard_basis_of.local.calls", "count", "lower"),
    ("ideals.standard_basis_of.local.self_ms", "ms", "lower"),
    ("ideals.standard_basis_of.global.calls", "count", "lower"),
    ("ideals.standard_basis_of.global.self_ms", "ms", "lower"),
    ("ideals.standard_basis_of.elim.calls", "count", "lower"),
    ("ideals.standard_basis_of.elim.self_ms", "ms", "lower"),
    ("ideals.standard_basis_of.basis_len_max", "count", "lower"),
    ("ideals.standard_basis_of.coeff_bits_max", "bits", "lower"),
    ("ideals.quotient_dim_local.calls", "count", "lower"),
    ("ideals.quotient_dim_local.self_ms", "ms", "lower"),
    ("ideals.normal_form.calls", "count", "lower"),
    ("ideals.Budget.created", "count", "lower"),
    ("ideals.Budget.steps", "count", "lower"),
    ("orders.leading_term.calls", "count", "lower"),
    ("invariants.milnor_number.calls", "count", "lower"),
    ("invariants.milnor_number.self_ms", "ms", "lower"),
    ("invariants.branch_slice_milnor.calls", "count", "lower"),
    ("invariants.branch_slice_milnor.self_ms", "ms", "lower"),
    ("invariants.local_degree.calls", "count", "lower"),
    ("invariants.validate_branch.calls", "count", "lower"),
    ("rings.Poly.substitute.calls", "count", "lower"),
    ("rings.Poly.substitute.self_ms", "ms", "lower"),
    ("le.le_numbers.self_ms", "ms", "lower"),
    ("scenario.load_scenario.calls", "count", "lower"),
    ("scenario.load_scenario.self_ms", "ms", "lower"),
    ("parsing.parse_poly.calls", "count", "lower"),
    ("parsing.parse_poly.self_ms", "ms", "lower"),
    ("stratified.verify_stratified_identities.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class BudgetMeter:
    """Counts the reduction steps of every Budget created since the last take."""

    def __init__(self, budget_cls):
        self.made: list = []
        self.created = 0
        self.steps = 0
        original = budget_cls.__init__
        made = self.made

        @functools.wraps(original)
        def init(budget, *args, **kwargs):
            original(budget, *args, **kwargs)
            made.append((budget, budget.remaining))

        budget_cls.__init__ = init

    def reset(self) -> None:
        self.made.clear()
        self.steps = self.created = 0

    def take(self) -> tuple[int, int]:
        """(steps spent, budgets created) since the previous take."""
        steps = sum(start - b.remaining for b, start in self.made)
        created = len(self.made)
        self.made.clear()
        self.steps += steps
        self.created += created
        return steps, created


def _order_kind(order) -> str:
    if order.is_local:
        return "local"
    return "elim" if order.kind == "elim-first" else "global"


def _coeff_bits(polys) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for p in polys for c in p.terms.values()),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.case = None
        self.basis_len_max = 0
        self.coeff_bits_max = 0
        self.cache_hits = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn, label=None, before=None, after=None):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, clock(), 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.append(
                    (frame[0], parent, label(args, kwargs) if label else name, tracer.case,
                     frame[1], end, duration - frame[2])
                )
            if after is not None:
                after(result)
            return result

        return wrapper

    def _special(self, qual, fn):
        if qual == "ideals.standard_basis_of":
            def label(args, kwargs):
                order = args[1] if len(args) > 1 else kwargs["order"]
                return f"{qual}.{_order_kind(order)}"

            def after(basis):
                self.basis_len_max = max(self.basis_len_max, len(basis))
                self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(basis))

            return self._span(qual, fn, label=label, after=after)
        if qual == "ideals.IdealPresentation.standard_basis":
            def before(args, kwargs):
                order = args[1] if len(args) > 1 else kwargs["order"]
                if order in args[0]._bases:
                    self.cache_hits += 1

            return self._span(qual, fn, before=before)
        if qual in COUNT_ONLY:
            return self._counter(qual, fn)
        return self._span(qual, fn)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        package = {n: m for n, m in sys.modules.items() if n == "germlab" or n.startswith("germlab.")}
        for layer in LAYERS:
            module = package.get(f"germlab.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                qual = f"{layer}.{attr}"
                if attr.startswith("_") or qual in SKIP:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._special(qual, fn)
                for holder in package.values():
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._undo.append((holder, name, fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(package[f"germlab.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._special(f"{layer}.{cls_name}.{meth}", fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        calls: Counter = Counter(self.counts)
        self_ns: Counter = Counter()
        for _, _, name, _, _, _, own in self.spans:
            calls[name] += 1
            self_ns[name] += own
        return calls, self_ns

    def layer_metrics(self, meter: BudgetMeter, extra: dict) -> dict:
        """Every PER_LAYER metric over the traced pass."""
        calls, self_ns = self.totals()
        sb = "ideals.IdealPresentation.standard_basis"
        special = {
            f"{sb}.hit_ratio": self.cache_hits / calls[sb] if calls[sb] else 0.0,
            "ideals.standard_basis_of.basis_len_max": self.basis_len_max,
            "ideals.standard_basis_of.coeff_bits_max": self.coeff_bits_max,
            "ideals.Budget.created": meter.created,
            "ideals.Budget.steps": meter.steps,
            **extra,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in special:
                value = special[name]
            elif name.endswith(".calls"):
                value = calls[name[: -len(".calls")]]
            elif name.endswith(".self_ms"):
                value = self_ns[name[: -len(".self_ms")]] / 1e6
            else:
                raise KeyError(name)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id name case_id start_ns end_ns self_ns\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
