"""Spans around the calls into fadingrate's layer functions.

The tracer wraps each listed function from outside the program: every
``fadingrate`` namespace that binds the function (the modules import
each other's names with ``from .x import y``) gets the wrapper, and
methods are replaced on their class.  Per-node callees such as
``PsdModel.psd`` or quadrature integrands are left alone so the overhead
stays small.  A span is ``[name, start, end, parent_index]``; self time
is a span's duration minus the time its child spans cover.
"""

import inspect
import sys
import time

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>".  mcrates.sethuraman_lower is reported as
# mcrates.sethuraman_lower_ts when called with timeshare=True.
TARGETS = [
    ("mcrates", "rate_lower_cm"),
    ("mcrates", "sethuraman_lower"),
    ("model", "Jakes.transform"),
    ("model", "RaisedCosine.transform"),
    ("model", "Jakes.autocorr"),
    ("model", "RaisedCosine.autocorr"),
    ("model", "Rectangular.autocorr"),
    ("quadrature", "szego_log_integral"),
    ("quadrature", "g_logmoment"),
    ("quadrature", "make_rng"),
    ("rates", "sd_optimal_L"),
    ("rates", "lapidoth_asymptotes"),
    ("rates", "sethuraman_upper"),
    ("rates", "rate_upper_pred_pg"),
    ("rates", "rate_upper_pred_peak"),
    ("rates", "rate_lower_pg"),
    ("rates", "rate_upper_pg_rect"),
    ("rates", "coherent_capacity"),
    ("prediction", "pred_error_cm_infinite"),
    ("prediction", "ToeplitzCov.from_model"),
    ("prediction", "pred_error_finite"),
    ("entropy", "h_y_upper_refined"),
    ("entropy", "entropy_gaps"),
    ("entropy", "h_y_lower"),
    ("simulate", "gen_fading_batch"),
    ("simulate", "write_fading_dump"),
]
MAIN = "cli.main"
TIMESHARE = "mcrates.sethuraman_lower_ts"
MC_FUNCTIONS = {"mcrates.rate_lower_cm", "mcrates.sethuraman_lower"}


def span_names():
    """Every span name a traced job can report, in a fixed order."""
    names = [f"{mod}.{attr}" for mod, attr in TARGETS]
    names.insert(names.index("mcrates.sethuraman_lower") + 1, TIMESHARE)
    return [MAIN] + names


class Tracer:
    """Keeps the spans of one job in memory and counts Monte Carlo samples
    requested (the ``n`` argument, or the library default when omitted)."""

    def __init__(self):
        self.spans = []
        self.mc_samples = 0
        self._stack = []

    def wrap(self, name, fn, name_of=None, on_call=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name if name_of is None else name_of(args, kwargs), 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _mc_hooks(self, name, fn):
        from fadingrate.quadrature import QuadratureConfig

        sig = inspect.signature(fn)

        def bound(args, kwargs):
            return sig.bind(*args, **kwargs).arguments

        def on_call(args, kwargs):
            arg = bound(args, kwargs)
            n = arg.get("n")
            if n is None:
                n = (arg.get("cfg") or QuadratureConfig()).mc_default_n
            self.mc_samples += int(n)

        name_of = None
        if name == "mcrates.sethuraman_lower":
            def name_of(args, kwargs):
                return TIMESHARE if bound(args, kwargs).get("timeshare") else name
        return name_of, on_call

    def install(self):
        """Wrap every target in every loaded fadingrate namespace that binds
        it; a target the package no longer has is skipped."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fadingrate" or key.startswith("fadingrate."))]
        for mod_name, attr in TARGETS:
            module = sys.modules.get(f"fadingrate.{mod_name}")
            if module is None:
                continue
            name = f"{mod_name}.{attr}"
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(fn_name) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, fn_name, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, fn_name, self.wrap(name, raw))
                continue
            fn = getattr(module, fn_name, None)
            if fn is None:
                continue
            hooks = self._mc_hooks(name, fn) if name in MC_FUNCTIONS else (None, None)
            wrapped = self.wrap(name, fn, *hooks)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)


def aggregate(spans):
    """Per-name calls, total and self seconds of one job's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + (end - start - covered))
    return out
