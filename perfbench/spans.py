"""Spans around calls into offerlab's public functions, kept in memory.

The tracer wraps names where the pipeline looks them up: ``offerlab.cli``
imports most stage functions by name, ``offerlab.evaluate`` imports the
sampler and predictor it tunes with, ``offerlab.segments`` imports the
scalar predictor, and ``offerlab.hb`` calls its own ``fit_hb_panel``.  The
program itself is not changed; ``uninstall`` puts every original back.
A name the program no longer has is skipped, and the metrics built on it
read 0.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, or -1
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Records spans (name, start, end, parent) and per-call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list = []
        self.enabled = False

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Span | None:
        if not self.enabled:
            return None
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is not None:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a traced call; ``describe(args, kwargs,
        result)`` returns the counts recorded on the span."""
        raw = vars(owner).get(attr)
        if raw is None:
            return
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if span is not None and describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        from offerlab import cli, evaluate, hb, segments

        def bytes_of_first_arg(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        def fit_counts(args, kwargs, result):
            sweeps = result.config.total_draws
            return {
                "sweeps": sweeps,
                "customer_updates": sweeps * result.n_customers,
                "_accept_rates": result.acceptance_rates,
            }

        def predict_counts(args, kwargs, result):
            draws, X = args[0], args[1]
            return {"row_draws": len(X) * draws.n_draws}

        def optimize_counts(args, kwargs, result):
            seg, draws, config = args[0], args[1], args[2]
            lo, hi = config.bounds_for(seg.segment)
            return {
                "customer_draws": seg.n_customers * draws.n_draws,
                "at_bound": int(result.r in (lo, hi)),
                "degenerate": int(result.degenerate),
                "nop": result.nop_value,
            }

        def save_counts(args, kwargs, result):
            return {"bytes": _dir_bytes(args[1])}

        def tune_counts(args, kwargs, result):
            best = [r.mean_auc for r in result.rows if r.ncomp == result.selected_ncomp]
            return {"selected_auc": best[0]}

        wraps = [
            (cli, "simulate_dataset", "simulate.simulate_dataset",
             lambda a, k, r: {"offer_rows": len(r.train) + len(r.test)}),
            (cli, "summarize_dataset", "simulate.summarize_dataset", None),
            (cli, "write_offer_csv", "datasets.csv_write", bytes_of_first_arg),
            (cli, "write_customers_csv", "datasets.csv_write", bytes_of_first_arg),
            (cli, "write_truth_csv", "datasets.csv_write", bytes_of_first_arg),
            (cli, "write_scores_csv", "datasets.csv_write", bytes_of_first_arg),
            (cli, "read_offer_csv", "datasets.csv_read", bytes_of_first_arg),
            (cli, "read_customers_csv", "datasets.csv_read", bytes_of_first_arg),
            (cli, "read_scores_csv", "datasets.csv_read", bytes_of_first_arg),
            (cli, "fit_hb_mixed_logit", "hb.fit_hb_mixed_logit", None),
            (hb, "fit_hb_panel", "hb.fit_hb_panel", fit_counts),
            (hb.PosteriorDraws, "save", "hb.save", save_counts),
            (hb.PosteriorDraws, "load", "hb.load", None),
            (cli, "predict_panel_probabilities", "hb.predict_panel_probabilities", predict_counts),
            (cli, "tune_ncomp", "evaluate.tune_ncomp", tune_counts),
            (evaluate, "build_panel", "hb.build_panel", None),
            (evaluate, "fit_hb_panel", "hb.fit_hb_panel", fit_counts),
            (evaluate, "predict_panel_probabilities", "hb.predict_panel_probabilities",
             predict_counts),
            (cli, "auc", "evaluate.metrics", None),
            (cli, "accuracy_at_base_rate", "evaluate.metrics", None),
            (cli, "lift_curve", "evaluate.metrics", None),
            (cli, "assign_segments", "segments.assign_segments",
             lambda a, k, r: {"customers": len(r)}),
            (segments, "predict_probability", "segments.predict_probability", None),
            (cli, "segment_distribution", "segments.segment_distribution", None),
            (cli, "segment_data_from_assignments", "profit.segment_data_from_assignments", None),
            (cli, "optimize_policy", "profit.optimize_policy", optimize_counts),
            (cli, "sha256_file", "storage.sha256_file", bytes_of_first_arg),
            (cli, "write_csv_atomic", "storage.write", None),
            (cli, "write_json_atomic", "storage.write", None),
            (cli, "write_text_atomic", "storage.write", None),
        ]
        for owner, attr, name, describe in wraps:
            self.wrap(owner, attr, name, describe)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def write(self, fh, repeat: int) -> None:
        """Write the spans as JSON lines; counts whose key starts with '_'
        stay in memory."""
        for span in self.spans:
            info = {k: v for k, v in (span.info or {}).items() if not k.startswith("_")}
            fh.write(json.dumps({
                "repeat": repeat, "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, **info,
            }) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repeat (all but trace.overhead_s)."""
    import numpy as np

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s.duration for s in named(name))

    def count(name, key):
        return sum((s.info or {}).get(key, 0) for s in named(name))

    m = {}
    optimize_s = total_s("profit.optimize_policy")
    m["profit.optimize_s"] = optimize_s
    m["profit.segment_s_max"] = max((s.duration for s in named("profit.optimize_policy")), default=0.0)
    m["profit.customer_draws"] = count("profit.optimize_policy", "customer_draws")
    m["profit.customer_draws_per_s"] = _ratio(m["profit.customer_draws"], optimize_s)
    m["profit.at_bound"] = count("profit.optimize_policy", "at_bound")
    m["profit.degenerate"] = count("profit.optimize_policy", "degenerate")
    m["profit.policy_nop"] = count("profit.optimize_policy", "nop")

    # hb.fit_hb_panel is wrapped under two names that fit_hb_mixed_logit
    # and tune_ncomp each reach; a span is never nested in another of them
    fits = named("hb.fit_hb_panel")
    fit_s = sum(s.duration for s in fits)
    sweeps = count("hb.fit_hb_panel", "sweeps")
    m["hb.fit_s"] = fit_s
    m["hb.sweeps"] = sweeps
    m["hb.sweep_ms"] = 1000.0 * _ratio(fit_s, sweeps)
    m["hb.customer_updates_per_s"] = _ratio(count("hb.fit_hb_panel", "customer_updates"), fit_s)
    rates = [s.info["_accept_rates"] for s in fits if s.info]
    rates = np.concatenate(rates) if rates else np.zeros(1)
    m["hb.accept_rate_p50"] = float(np.median(rates))
    m["hb.accept_rate_min"] = float(np.min(rates))

    tunes = named("evaluate.tune_ncomp")
    m["evaluate.tune_s"] = sum(s.duration for s in tunes)
    m["evaluate.tune_auc"] = tunes[-1].info["selected_auc"] if tunes and tunes[-1].info else 0.0
    cells = _tune_cells(spans, tunes)
    m["evaluate.tune_cells"] = len(cells)
    m["evaluate.cell_s_p50"] = statistics.median(c for c, _ in cells) if cells else 0.0
    m["evaluate.cell_fit_share"] = _ratio(sum(f for _, f in cells), sum(c for c, _ in cells))

    m["hb.save_s"] = total_s("hb.save")
    m["hb.load_s"] = total_s("hb.load")
    m["hb.loads"] = len(named("hb.load"))
    m["hb.posterior_bytes"] = count("hb.save", "bytes")
    m["storage.sha256_s"] = total_s("storage.sha256_file")
    m["storage.sha256_bytes"] = count("storage.sha256_file", "bytes")

    # vectorized predictions only: the calls tune_ncomp makes belong to its cells
    predicts = [s for s in named("hb.predict_panel_probabilities") if not _inside(s, tunes)]
    predict_s = sum(s.duration for s in predicts)
    m["hb.predict_s"] = predict_s
    m["hb.predict_calls"] = len(predicts)
    m["hb.predict_row_draws_per_s"] = _ratio(sum(s.info["row_draws"] for s in predicts), predict_s)

    assign_s = total_s("segments.assign_segments")
    m["segments.assign_s"] = assign_s
    m["segments.predict_calls"] = len(named("segments.predict_probability"))
    m["segments.customers_per_s"] = _ratio(count("segments.assign_segments", "customers"), assign_s)

    m["simulate.simulate_dataset_s"] = total_s("simulate.simulate_dataset")
    m["simulate.offer_rows"] = count("simulate.simulate_dataset", "offer_rows")
    m["datasets.csv_write_s"] = total_s("datasets.csv_write")
    m["datasets.csv_read_s"] = total_s("datasets.csv_read")
    m["datasets.csv_bytes"] = count("datasets.csv_write", "bytes") + count("datasets.csv_read", "bytes")
    m["evaluate.metrics_s"] = total_s("evaluate.metrics")

    # a stage's self time: its wall time minus the spans it called directly
    child_s = {}
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.duration
    for stage in ("tune", "fit", "optimize"):
        m[f"cli.{stage}_s"] = total_s(f"cli.{stage}")
    m["cli.self_s"] = sum(
        s.duration - child_s.get(i, 0.0) for i, s in enumerate(spans) if s.name.startswith("cli.")
    )
    return m


def _inside(span: Span, ancestors) -> bool:
    return any(a.start <= span.start and span.end <= a.end for a in ancestors)


def _tune_cells(spans, tunes):
    """(cell seconds, fit seconds) per cross-validation cell.

    A cell starts where tune_ncomp builds its training panel and lasts until
    the next cell starts or tuning ends, so it covers the fit, the
    validation predictions and the cell's AUC.
    """
    cells = []
    for tune in tunes:
        starts = [s for s in spans if s.name == "hb.build_panel" and _inside(s, [tune])]
        fits = [s for s in spans if s.name == "hb.fit_hb_panel" and _inside(s, [tune])]
        bounds = [s.start for s in starts] + [tune.end]
        for begin, end in zip(bounds, bounds[1:]):
            fit_s = sum(f.duration for f in fits if begin <= f.start < end)
            cells.append((end - begin, fit_s))
    return cells
