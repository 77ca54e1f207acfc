"""Span tracing of freqtrack's public functions, from outside the package.

Every traced function is rebound, for the duration of a traced operation,
at each module that binds it: ``forward`` at ``freqtrack.hmm`` and at
``freqtrack.hyperopt``.  The declared import sites are checked against the
loaded modules before anything is rebound, so a function that moved or a
new import site fails loudly instead of silently losing its span.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# "layer.function" -> modules that bind the function (home module first).
# Per-bin helpers such as spectral.periodogram get no span: a span per bin
# would cost more than the work it times.
SITES = {
    "cli.main": ("freqtrack.cli",),
    "io.read_dataset_csv": ("freqtrack.io",),
    "io.write_dataset_csv": ("freqtrack.io",),
    "io.read_track_csv": ("freqtrack.io",),
    "io.write_track_csv": ("freqtrack.io",),
    "io.read_key_values": ("freqtrack.io",),
    "io.write_key_values": ("freqtrack.io",),
    "signal.synthesize_dataset": ("freqtrack.signal", "freqtrack", "freqtrack.cli"),
    "spectral.periodogram_table": ("freqtrack.spectral", "freqtrack.hmm",
                                   "freqtrack.hyperopt", "freqtrack.baselines"),
    "spectral.periodogram_deriv_many": ("freqtrack.spectral", "freqtrack.refine",
                                        "freqtrack.baselines"),
    "likelihood.map_objective": ("freqtrack.likelihood", "freqtrack.refine"),
    "markov.transition_matrix": ("freqtrack.markov", "freqtrack.hyperopt"),
    "hmm.observation_table": ("freqtrack.hmm", "freqtrack.hyperopt", "freqtrack.cli"),
    "hmm.forward": ("freqtrack.hmm", "freqtrack.hyperopt"),
    "hmm.backward": ("freqtrack.hmm",),
    "hmm.posterior_marginals": ("freqtrack.hmm", "freqtrack.hyperopt"),
    "hmm.viterbi": ("freqtrack.hmm", "freqtrack.cli"),
    "hyperopt.estimate_ml": ("freqtrack.hyperopt", "freqtrack.cli"),
    "hyperopt.hyper_nll": ("freqtrack.hyperopt", "freqtrack.cli"),
    "hyperopt.hyper_nll_gradient": ("freqtrack.hyperopt",),
    "refine.refine_map": ("freqtrack.refine", "freqtrack.cli"),
    "refine.objective_gradient": ("freqtrack.refine",),
    "baselines.ml_periodogram_argmax": ("freqtrack.baselines", "freqtrack.cli"),
    "baselines.unwrap_track": ("freqtrack.baselines", "freqtrack.cli"),
}
LAYERS = sorted({name.split(".")[0] for name in SITES})

# Work derived from array shapes, not measured.
_COMPUTED = {
    "markov.transition_matrix": ("bytes_computed", lambda args, out: out.nbytes),
    "hmm.posterior_marginals": ("bytes_computed", lambda args, out: out.pairs.nbytes),
    "hmm.viterbi": ("pair_ops_computed",
                    lambda args, out: (args[0].n_bins - 1) * args[0].n_states ** 2),
}
# Spans whose return value carries the program's own counters.
_KEEP_RESULT = {"hyperopt.estimate_ml", "refine.refine_map"}


class TracingError(RuntimeError):
    """A traced function is not where SITES says, or the counts disagree."""


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    computed: float = 0.0
    result: object = None
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _originals() -> dict[str, object]:
    """The function object of every traced name, looked up at its home module."""
    found = {}
    for name in SITES:
        layer, fn = name.split(".")
        module = sys.modules.get(f"freqtrack.{layer}")
        if module is None or not callable(getattr(module, fn, None)):
            raise TracingError(f"{name}: freqtrack.{layer}.{fn} no longer exists")
        found[name] = getattr(module, fn)
    return found


def _check_sites(originals: dict[str, object]) -> None:
    loaded = {n: m for n, m in sys.modules.items()
              if n == "freqtrack" or n.startswith("freqtrack.")}
    for name, declared in SITES.items():
        fn = name.split(".")[1]
        binding = {n for n, m in loaded.items() if getattr(m, fn, None) is originals[name]}
        missing = set(declared) - binding
        extra = binding - set(declared)
        if missing:
            raise TracingError(f"{name}: no longer bound at {sorted(missing)}")
        if extra:
            raise TracingError(f"{name}: undeclared import site {sorted(extra)}; add it to SITES")


class Tracer:
    """Records spans of one operation at a time in memory."""

    def __init__(self):
        import freqtrack.cli  # noqa: F401  -- loads every module that binds a traced name
        self.originals = _originals()
        _check_sites(self.originals)
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        computed = _COMPUTED.get(name)
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None, time.perf_counter())
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.seconds
            if computed is not None:
                span.computed = computed[1](args, out)
            if keep:
                span.result = out
            return out

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name at every site; restore them on exit."""
        self.spans.clear()
        wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        try:
            for name, wrapper in wrappers.items():
                for module in SITES[name]:
                    setattr(sys.modules[module], name.split(".")[1], wrapper)
            yield self
        finally:
            for name, fn in self.originals.items():
                for module in SITES[name]:
                    setattr(sys.modules[module], name.split(".")[1], fn)
            _check_sites(self.originals)


def _ancestor(spans: list[Span], span: Span, name: str) -> int | None:
    index = span.parent
    while index is not None and spans[index].name != name:
        index = spans[index].parent
    return index


def _count_under(spans: list[Span], child: str, parent: str) -> dict[int, int]:
    counts: dict[int, int] = {}
    for span in spans:
        if span.name == child:
            index = _ancestor(spans, span, parent)
            if index is not None:
                counts[index] = counts.get(index, 0) + 1
    return counts


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``<name>.s`` is inclusive span time, ``<layer>.self_s`` the layer's span
    time minus the time of their direct child spans.  Wrapper counts are
    cross-checked against OptimizerReport and RefinementResult.
    """
    m: dict[str, float] = {}
    for name in SITES:
        mine = [s for s in spans if s.name == name]
        m[f"{name}.s"] = sum(s.seconds for s in mine)
        m[f"{name}.calls"] = len(mine)
        if name in _COMPUTED:
            m[f"{name}.{_COMPUTED[name][0]}"] = sum(s.computed for s in mine)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.seconds - s.child_s for s in spans
                                   if s.name.startswith(layer + "."))

    fun = _count_under(spans, "hyperopt.hyper_nll", "hyperopt.estimate_ml")
    grad = _count_under(spans, "hyperopt.hyper_nll_gradient", "hyperopt.estimate_ml")
    reports = [(i, s.result) for i, s in enumerate(spans)
               if s.name == "hyperopt.estimate_ml" and s.result is not None]
    for i, report in reports:
        if (fun.get(i, 0), grad.get(i, 0)) != (report.function_evals, report.gradient_evals):
            raise TracingError(
                f"estimate_ml reports {report.function_evals} function and "
                f"{report.gradient_evals} gradient evaluations, spans saw "
                f"{fun.get(i, 0)} and {grad.get(i, 0)}")
    m["hyperopt.function_evals"] = sum(r.function_evals for _, r in reports)
    m["hyperopt.gradient_evals"] = sum(r.gradient_evals for _, r in reports)
    m["hyperopt.iterations"] = sum(r.iterations for _, r in reports)
    m["hyperopt.accepted_step_ratio"] = (m["hyperopt.iterations"] / m["hyperopt.function_evals"]
                                         if reports else 0.0)
    m["hyperopt.converged_frac"] = (sum(r.converged for _, r in reports) / len(reports)
                                    if reports else 0.0)

    evals = _count_under(spans, "likelihood.map_objective", "refine.refine_map")
    grads = _count_under(spans, "refine.objective_gradient", "refine.refine_map")
    results = [(i, s.result) for i, s in enumerate(spans)
               if s.name == "refine.refine_map" and s.result is not None]
    for i, result in results:
        # one gradient per Newton iteration, plus the one that stopped the loop
        if len(result.objective_trace) != result.iterations + 1 or \
                grads.get(i, 0) - result.iterations not in (0, 1):
            raise TracingError(
                f"refine_map reports {result.iterations} iterations and "
                f"{len(result.objective_trace)} trace values, spans saw "
                f"{grads.get(i, 0)} gradients")
    m["refine.iterations"] = sum(r.iterations for _, r in results)
    m["refine.objective_evals"] = sum(evals.values())
    m["refine.accepted_step_ratio"] = (m["refine.iterations"] / m["refine.objective_evals"]
                                       if results else 0.0)
    return m
