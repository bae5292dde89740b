"""In-memory span tracing of hmuq layers, installed from outside the package.

A `Tracer` replaces public functions with timing wrappers under the name the
caller looks up (the handler table `cli.HANDLERS`, names that `cli` imported
with `from ... import`, the module globals `trainer` and `uncertainty` call,
and the `ReferencePredictor` methods).  Each call records one span: name,
start, end, parent span and the id of the `hmuq.cli.main` call it belongs to.
Nothing inside `src/hmuq` changes; per-stage conv timing needs a hook in
`nets.py` and is not measured here.
"""

from __future__ import annotations

import functools
import statistics
import time

import hmuq.cli
import hmuq.nets
import hmuq.trainer
import hmuq.uncertainty


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "info", "child_s")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.info = {}
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part its (sequential, nested) children cover."""
        return self.seconds - self.child_s


def _fit_info(args, kwargs, result):
    return {"nfev": result.iterations, "converged": bool(result.converged)}


def _train_info(args, kwargs, result):
    return {"iterations": len(result.loss_trace)}


def _mc_info(args, kwargs, result):
    return {"samples": kwargs.get("n", args[3] if len(args) > 3 else 10000)}


TRACED_HANDLERS = ("synth", "train", "eval", "clinical", "mcd")


def hmuq_targets():
    """(span name, owner, attribute, info hook) for every traced layer boundary."""
    cli, trainer, unc = hmuq.cli, hmuq.trainer, hmuq.uncertainty
    net = hmuq.nets.ReferencePredictor
    targets = [("main", cli, "main", None)]
    targets += [(f"cli.{sub}", cli.HANDLERS, sub, None) for sub in TRACED_HANDLERS]
    targets += [
        ("trainer.train", cli, "train", _train_info),
        ("nets.forward", net, "forward", None),
        ("nets.backward", net, "backward", None),
        ("trainer.aniso_loss_gradients", trainer, "aniso_loss_gradients", None),
        ("gauss.render_with_param_gradients", trainer, "render_with_param_gradients", None),
        # uncertainty.mcd_predict imports trainer.predict when it runs
        ("trainer.predict", cli, "predict", None),
        ("trainer.predict", trainer, "predict", None),
        ("fitting.fit_gaussian", unc, "fit_gaussian", _fit_info),
        ("uncertainty.mcd_predict", cli, "mcd_predict", None),
        ("uncertainty.mcd_heatmap_fit", cli, "mcd_heatmap_fit", None),
        ("uncertainty.mcd_max", cli, "mcd_max", None),
        ("clinical.mc_classify", cli, "mc_classify", _mc_info),
        ("dataio.load_dataset", cli, "load_dataset", None),
        ("trainer.read_checkpoint", cli, "read_checkpoint", None),
        ("trainer.write_checkpoint", cli, "write_checkpoint", None),
        ("synthdata.generate", cli, "generate", None),
        ("metrics.aggregate_stats", cli, "aggregate_stats", None),
    ]
    return targets


def fit_targets():
    """Only the heatmap fit: enough to count fits and their failures."""
    return [t for t in hmuq_targets() if t[0] == "fitting.fit_gaussian"]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._calls = 0
        self._saved = []

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._calls += 1
            span = Span(name, time.perf_counter(), parent, self._calls)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            else:
                if info is not None:
                    span.info = info(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
                self.spans.append(span)
        return traced

    def __enter__(self):
        for name, owner, attr, info in self.targets:
            fn = _get(owner, attr)
            self._saved.append((owner, attr, fn))
            _set(owner, attr, self._wrap(name, fn, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            _set(owner, attr, fn)
        self._saved.clear()
        return False


def fit_tally(spans) -> tuple[int, int]:
    """(fits attempted, fits failed): a fit fails when it raises or does not converge."""
    fits = [s for s in spans if s.name == "fitting.fit_gaussian"]
    bad = sum(1 for s in fits if "error" in s.info or not s.info.get("converged"))
    return len(fits), bad


# --- per-layer metrics ----------------------------------------------------------------


def _pct(values, q):
    """The q-th percentile (nearest rank above) of values, 0.0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


LAYERS = (
    "nets.forward", "nets.backward", "trainer.aniso_loss_gradients",
    "gauss.render_with_param_gradients", "trainer.predict", "fitting.fit_gaussian",
    "uncertainty.mcd_predict", "uncertainty.mcd_heatmap_fit", "uncertainty.mcd_max",
    "clinical.mc_classify", "dataio.load_dataset", "trainer.read_checkpoint",
    "trainer.write_checkpoint", "synthdata.generate", "metrics.aggregate_stats",
)
# every layer but the four small I/O and set-up ones
SELF_FRAC_LAYERS = LAYERS[:11]
P90_LAYERS = ("nets.forward", "nets.backward")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase lasting wall_s seconds."""
    out = {}
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(spans):
        return [1e3 * s.seconds for s in spans]

    for sub in TRACED_HANDLERS:
        spans = by_name.get(f"cli.{sub}", [])
        out[f"cli.{sub}.self_ms"] = (
            statistics.median([1e3 * s.self_seconds for s in spans]) if spans else 0.0, "ms")
    cli_self = sum(s.self_seconds for s in tracer.spans
                   if s.name == "main" or s.name.startswith("cli."))
    out["cli.self_frac"] = (cli_self / wall_s, "frac")

    trains = by_name.get("trainer.train", [])
    iterations = sum(s.info.get("iterations", 0) for s in trains)
    out["trainer.train.calls"] = (len(trains), "count")
    out["trainer.train.self_ms_per_it"] = (
        1e3 * sum(s.self_seconds for s in trains) / iterations if iterations else 0.0, "ms")

    for name in LAYERS:
        spans = by_name.get(name, [])
        durations = ms(spans)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.ms_p50"] = (statistics.median(durations) if durations else 0.0, "ms")
        if name in P90_LAYERS:
            out[f"{name}.ms_p90"] = (_pct(durations, 90), "ms")
        if name in SELF_FRAC_LAYERS:
            out[f"{name}.self_frac"] = (sum(s.self_seconds for s in spans) / wall_s, "frac")

    fits = by_name.get("fitting.fit_gaussian", [])
    done = [s for s in fits if "error" not in s.info]
    out["fitting.fit_gaussian.ms_p99"] = (_pct(ms(fits), 99), "ms")
    out["fitting.fit_gaussian.nfev_mean"] = (
        statistics.fmean(s.info["nfev"] for s in done) if done else 0.0, "count")
    out["fitting.fit_gaussian.converged_frac"] = (
        sum(s.info["converged"] for s in done) / len(fits) if fits else 0.0, "frac")
    out["fitting.fit_gaussian.degenerate"] = (
        sum(1 for s in fits if s.info.get("error") == "FitDegenerateError"), "count")

    draws = by_name.get("clinical.mc_classify", [])
    busy = sum(s.seconds for s in draws)
    out["clinical.mc_classify.samples_per_s"] = (
        sum(s.info.get("samples", 0) for s in draws) / busy if busy else 0.0, "1/s")

    out["trace.accounted_frac"] = (sum(s.self_seconds for s in tracer.spans) / wall_s, "frac")
    return out
