"""Spans around the package's layer entry points, and per-layer metrics.

Hooks replace a function under the name its caller looks it up by (for
example ``causalapprox.approximation.solve``, which ``approximate`` calls), so
the package itself is unchanged. Each span records name, layer, start, end,
parent and a few counts taken from the call's arguments and result. Spans
stay in memory and are written out when the run ends. A layer's self time is
its spans' time minus the time of their child spans.

A hook whose target does not exist is listed as absent instead of failing the
run; a layer none of whose hooks ran reads 0.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


def _rows_read(args, result):
    return {"rows_read": len(result[1])}


def _cells(args, result):
    return {"cells": result.space.shape.n_cells}


def _fit(args, result):
    spec = args[1]
    name = spec.variant.value
    kind = ("bivariate" if not name.startswith("z_")
            else "hidden_z" if name.endswith("_hidden") else "observed_z")
    return {"kind": kind, "degenerate": bool(result.degenerate)}


def _lp(args, result):
    prob = args[0]
    return {"pivots": result.iterations, "rows": prob.n_rows,
            "cols": prob.n_cols, "optimal": result.status.value == "optimal"}


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    counts: Callable | None = None


HOOKS = (
    Hook("cli", "causalapprox.cli", "_read_csv", _rows_read),
    Hook("cli", "causalapprox.cli", "_numeric_column"),
    Hook("cli", "causalapprox.cli", "_resolve_env"),
    Hook("discovery.ingest", "causalapprox.discovery", "ensure_categories"),
    Hook("discovery.ingest", "causalapprox.discovery", "preprocess"),
    Hook("discovery.ingest", "causalapprox.discovery", "split_by_environment"),
    Hook("discovery.ingest", "causalapprox.discovery", "build_inputs"),
    Hook("distributions", "causalapprox.discovery", "discretize_equal_frequency"),
    Hook("distributions", "causalapprox.discovery", "empirical_joint"),
    Hook("distributions", "causalapprox.discovery", "empirical_marginal"),
    Hook("distributions", "causalapprox.approximation", "marginalize"),
    Hook("distributions", "causalapprox.approximation", "kl_divergence"),
    Hook("distributions", "causalapprox.causation", "marginalize"),
    Hook("models", "causalapprox.approximation", "build_support", _cells),
    Hook("approximation.constraints", "causalapprox.approximation",
         "_constraint_rows"),
    Hook("approximation.reweight", "causalapprox.discovery", "approximate", _fit),
    Hook("approximation.reweight", "causalapprox.causation", "approximate", _fit),
    # the triad workload's own call site
    Hook("approximation.reweight", "causalapprox", "approximate", _fit),
    Hook("simplex", "causalapprox.approximation", "solve", _lp),
    Hook("causation", "causalapprox.discovery", "calc_causal_probabilities"),
    Hook("discovery.decision", "causalapprox.discovery", "_evaluate_direction"),
    Hook("discovery.decision", "causalapprox.discovery", "_decide"),
)

LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))

OP = "op"  # layer of the root span around each op


class Tracer:
    """In-memory spans: (name, layer, start, end, parent, counts) tuples.

    A span's slot is reserved when it begins, so parents precede children;
    finished spans are tuples of atoms, which the garbage collector skips.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._open: list[tuple[int, str, str, float]] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append((idx, name, layer, time.monotonic()))
        return idx

    def end(self, counts: dict | None = None) -> None:
        end = time.monotonic()
        idx, name, layer, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans[idx] = (name, layer, start, end, parent, counts)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded in a child process below span ``parent``.

        ``time.monotonic`` reads one system-wide clock on Linux, so the
        child's times line up with this process's.
        """
        base = len(self.spans)
        for name, layer, start, end, par, counts in spans:
            self.spans.append((name, layer, start, end,
                               parent if par < 0 else base + par, counts))

    def _wrap(self, hook: Hook, fn):
        name = f"{hook.module}.{hook.attr}"

        def traced(*args, **kwargs):
            self.begin(name, hook.layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = None
                if hook.counts is not None and result is not None:
                    try:
                        counts = hook.counts(args, result)
                    except (AttributeError, IndexError, TypeError):
                        counts = None  # call signature changed
                self.end(counts)

        return traced

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            fn = getattr(module, hook.attr, None)
            if not callable(fn):
                self.absent.append(f"{hook.layer}:{hook.module}.{hook.attr}")
                continue
            self._installed.append((module, hook.attr, fn))
            setattr(module, hook.attr, self._wrap(hook, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def layer_metrics(spans: list[tuple], verdicts: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the ops whose root spans are in ``spans``.

    ``verdicts`` are the discovery verdicts those ops returned, if any.
    A layer with no spans, present or absent, reads 0.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_ms = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    op_ms = 0.0
    n_ops = 0
    cells = rows_read = 0
    fits = {"observed_z": [], "hidden_z": []}
    degenerate = 0
    lps = []
    for i, (name, layer, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        if layer == OP:
            n_ops += 1
            op_ms += 1e3 * dur
            continue
        self_ms[layer] += 1e3 * (dur - child_time[i])
        calls[layer] += 1
        counts = counts or {}
        cells += counts.get("cells", 0)
        rows_read += counts.get("rows_read", 0)
        if "kind" in counts:
            degenerate += counts["degenerate"]
            fits.setdefault(counts["kind"], []).append(1e3 * dur)
        if "pivots" in counts:
            lps.append(counts)
    n = max(n_ops, 1)
    n_fits = calls["approximation.reweight"]
    n_lps = max(len(lps), 1)
    n_verdicts = max(len(verdicts), 1)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "cli.self_ms_per_op": self_ms["cli"] / n,
        "cli.rows_per_op": rows_read / n,
        "discovery.ingest.self_ms_per_op": self_ms["discovery.ingest"] / n,
        "distributions.self_ms_per_op": self_ms["distributions"] / n,
        "distributions.calls_per_op": calls["distributions"] / n,
        "models.calls_per_op": calls["models"] / n,
        "models.cells_per_op": cells / n,
        "models.self_ms_per_op": self_ms["models"] / n,
        "approximation.constraints.self_ms_per_op":
            self_ms["approximation.constraints"] / n,
        "approximation.reweight.self_ms_per_op":
            self_ms["approximation.reweight"] / n,
        "approximation.calls_per_op": n_fits / n,
        "approximation.degenerate_frac": degenerate / max(n_fits, 1),
        "approximation.ms_per_call.observed_z": mean(fits["observed_z"]),
        "approximation.ms_per_call.hidden_z": mean(fits["hidden_z"]),
        "simplex.self_ms_per_op": self_ms["simplex"] / n,
        "simplex.calls_per_op": calls["simplex"] / n,
        "simplex.pivots_per_solve": sum(c["pivots"] for c in lps) / n_lps,
        "simplex.rows_per_solve": sum(c["rows"] for c in lps) / n_lps,
        "simplex.cols_per_solve": sum(c["cols"] for c in lps) / n_lps,
        "simplex.cell_updates_per_op":
            sum(c["pivots"] * c["rows"] * c["cols"] for c in lps) / n,
        "simplex.nonoptimal_frac":
            sum(not c["optimal"] for c in lps) / n_lps,
        "causation.self_ms_per_op": self_ms["causation"] / n,
        "causation.calls_per_op": calls["causation"] / n,
        "discovery.decision.self_ms_per_op":
            self_ms["discovery.decision"] / n,
        "discovery.monotone_path_frac":
            sum(r["used_monotone_path"] for r in verdicts) / n_verdicts,
        "discovery.undecided_frac":
            sum(r["decision"] == "none" for r in verdicts) / n_verdicts,
        "discovery.correct_frac":
            sum(r["decision"] == "x->y" for r in verdicts) / n_verdicts,
        "trace.op_ms_per_op": op_ms / n,
    }
