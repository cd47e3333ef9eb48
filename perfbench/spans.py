"""Per-layer tracing from outside the program.

The traced run replaces each public function named in ``SPANS`` with a
wrapper that records a span, and each one in ``COUNTS`` with a wrapper that
only counts calls.  A function is reached through every name bound to it:
the module that defines it, the ``from .x import y`` copies in other
modules, re-exports in the package, and module-level tables such as
``audit._SUITE_FNS``.  ``Tracer.patch`` rebinds all of them, and
``Tracer.unpatched_bindings`` asks the garbage collector whether anything
still refers to an original, so a missed binding is reported rather than
silently undercounted.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are kept as running totals in memory; nothing is written
while the program runs.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import types
from fractions import Fraction

PACKAGE = "posterior_dynamics"

SPANS = {
    "engine": ("expected_posterior_discrete", "expected_posterior_beta",
               "expected_posterior_uniform", "expected_posterior_normal",
               "expected_posterior_exponential", "expected_posterior_quadrature"),
    "util": ("tree_sum_fractions", "logsumexp"),
    "families": ("suff_stat_log_density",),
    "priors": ("marginal_suffstat_logpmf", "beta_marginal_pmf_exact"),
    "specialfn": ("binomial_square_sum", "legendre_ratios", "bessel_K_half"),
    "quadrature": ("integrate",),
    "diagnostics": ("analyze", "detect_modes", "detect_minima", "logconcavity_scan",
                    "eventual_decrease_index", "normal_critical_points",
                    "asymptotic_expected_posterior"),
    "figures": ("sequence_csv", "sequence_report", "render_json", "sequence_svg",
                "atomic_write"),
    "scenario": ("load_scenario", "run_scenario"),
    "cli": ("main",),
    "audit": ("suite_turan", "suite_bessel", "suite_logconcavity", "suite_orders",
              "suite_positivity", "suite_asymptotics"),
    "bipoly": ("certify_logconcavity_polynomials",),
    "orders": ("find_lr_reversal",),
}
# called too often, or too cheaply, for a span to be worth its cost
COUNTS = {
    "util": ("ratio_to_float",),
    "families": ("binomial_pmf_exact",),
    "orders": ("posterior_law",),
}
EXACT_COMPARE_DUNDERS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")
EXACT_COMPARE = "util.ExactValue.compare"

# extra counters filled in by the wrappers below
ENGINE_VALUES = "engine.values"
ENGINE_MAX_BITS = "engine.exact.max_bits"
INTEGRAND_EVALS = "quadrature.integrand_evals"
BYTES_WRITTEN = "figures.bytes_written"
AUDIT_CHECKS = "audit.checks"
AUDIT_CHECKS_FAILED = "audit.checks_failed"


def _max_bits(values) -> int:
    bits = 0
    for v in values:
        if isinstance(v, Fraction):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        elif hasattr(v, "num") and hasattr(v, "den"):
            bits = max(bits, abs(v.num).bit_length(), v.den.bit_length())
    return bits


class Tracer:
    """Span totals and counters for the wrapped functions of one run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            ENGINE_VALUES: 0, ENGINE_MAX_BITS: 0, INTEGRAND_EVALS: 0, BYTES_WRITTEN: 0,
            AUDIT_CHECKS: 0, AUDIT_CHECKS_FAILED: 0,
        }
        # child time accumulators of the open spans; the root never closes
        self._stack = [0.0]
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None, wrap_args=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _after_route(self, args, seq):
        counters = self.counters
        if isinstance(seq, tuple):  # quadrature oracle: (value, error)
            counters[ENGINE_VALUES] += 1
            return
        counters[ENGINE_VALUES] += len(seq.values)
        counters[ENGINE_MAX_BITS] = max(counters[ENGINE_MAX_BITS], _max_bits(seq.values))

    def _count_integrand(self, args):
        counters = self.counters
        f = args[0]

        def counted(x):
            counters[INTEGRAND_EVALS] += 1
            return f(x)

        return (counted,) + tuple(args[1:])

    def _after_write(self, args, _result):
        self.counters[BYTES_WRITTEN] += os.path.getsize(args[0])

    def _after_suite(self, _args, report):
        self.counters[AUDIT_CHECKS] += len(report["checks"])
        self.counters[AUDIT_CHECKS_FAILED] += sum(not c["pass"] for c in report["checks"])

    def _make(self, module: str, attr: str, fn):
        name = f"{module}.{attr}"
        if module in COUNTS and attr in COUNTS[module]:
            return self._count(name, fn)
        after = wrap_args = None
        if module == "engine":
            after = self._after_route
        elif name == "quadrature.integrate":
            wrap_args = self._count_integrand
        elif name == "figures.atomic_write":
            after = self._after_write
        elif module == "audit":
            after = self._after_suite
        return self._span(name, fn, after=after, wrap_args=wrap_args)

    # -- patching -----------------------------------------------------------

    def patch(self) -> None:
        """Rebind every name that refers to a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        targets = [(m, a) for m, attrs in SPANS.items() for a in attrs]
        targets += [(m, a) for m, attrs in COUNTS.items() for a in attrs]
        replace: dict[int, tuple[object, object]] = {}
        for module, attr in targets:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._make(module, attr, fn)
            self._originals[f"{module}.{attr}"] = fn
            self._wrappers[f"{module}.{attr}"] = wrapper
            replace[id(fn)] = (fn, wrapper)

        namespaces = [vars(mod) for mod in modules]
        # module-level tables such as audit._SUITE_FNS
        namespaces += [v for ns in namespaces[:] for k, v in ns.items()
                       if isinstance(v, dict) and not k.startswith("__")]
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                pair = replace.get(id(value))
                if pair is not None and pair[0] is value:
                    self._rebind(namespace, key, pair[1])
        exact_value = sys.modules[f"{PACKAGE}.util"].ExactValue
        for dunder in EXACT_COMPARE_DUNDERS:
            fn = exact_value.__dict__[dunder]
            wrapper = self._count(EXACT_COMPARE, fn)
            self._originals[f"util.ExactValue.{dunder}"] = fn
            self._wrappers[f"util.ExactValue.{dunder}"] = wrapper
            self._bindings.append((exact_value, dunder, fn))
            setattr(exact_value, dunder, wrapper)

    def _rebind(self, container: dict, key: str, wrapper) -> None:
        self._bindings.append((container, key, container[key]))
        container[key] = wrapper

    def restore(self) -> None:
        for container, key, original in reversed(self._bindings):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._bindings.clear()

    def unpatched_bindings(self) -> list[str]:
        """Objects other than the tracer's own that still refer to an
        original function; each is a call path the trace would miss."""
        own = {id(self._originals), id(self._bindings), id(self._stack)}
        for wrapper in self._wrappers.values():
            own.update(id(c) for c in wrapper.__closure__ or ())
        own.update(id(b) for b in self._bindings)
        gc.collect()
        missed = []
        for name in self._originals:  # items() would add a (name, fn) tuple
            for ref in gc.get_referrers(self._originals[name]):
                if id(ref) in own or isinstance(ref, types.FrameType):
                    continue
                missed.append(f"{name} <- {type(ref).__name__}")
        return missed

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every call count and additive counter, for per-item
        deltas."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update((k, v) for k, v in self.counters.items() if k != ENGINE_MAX_BITS)
        return out
