"""The traced pass: which marginlab calls become spans, and the per-layer
metrics computed from those spans.

Each layer is timed at the public calls into it.  The time a metric reports
is busy time, summed over calls and threads; a metric is 0 when its layer
does no such work on the workload.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import defaultdict

import numpy as np

from marginlab import geometry, harness, learners, lemma_lab, measures
from tracer import Tracer, counting_view, lookup, patched
from workloads import MVEE_DIMS

TINY_SIZE = 5  # programs with at most this many points are "tiny"


def _n_points(data) -> int:
    return len(data[1]) if isinstance(data, tuple) else len(data)


def traced_patches(T: Tracer) -> list:
    def span(name, before=None, after=None):
        return lambda fn: T.wrap(name, fn, before, after)

    def set_attr(key, pick):
        return lambda s, args, kwargs: s.attrs.__setitem__(key, pick(args))

    def gram_view(s, G, args):
        s.attrs["n"] = len(G)
        return counting_view(G, T)

    def train_done(s, model, args):
        s.attrs.update(objective=model.objective,
                       gap_certificate=model.gap_certificate,
                       converged=bool(model.converged))
        return model

    def counted_loss(s, loss, args):
        sub = loss.subgradient

        def subgradient(x):
            T.count("iters")
            return sub(x)

        return dataclasses.replace(loss, subgradient=subgradient)

    def band_done(s, report, args):
        s.attrs["slack"] = report.bound / report.gap if report.gap else None
        return report

    suites = harness.SUITES
    return [
        (harness, "run_single", span("harness.trial")),
        (measures, "sample_dataset",
         span("measures.sample", set_attr("points", lambda a: a[1]))),
        # the solver's Gram matrix, as learners imported it from kernels
        (learners, "gram", span("kernels.gram", after=gram_view)),
        (learners, "make_loss", span(None, after=counted_loss)),
        (learners, "train_kernel_program",
         span("learners.train", set_attr("n", lambda a: _n_points(a[0])),
              train_done)),
        (learners, "evaluate",
         span("learners.evaluate",
              set_attr("points", lambda a: _n_points(a[1])))),
        (lemma_lab, "check_band_gap",
         span("lemma_lab.band_check", after=band_done)),
        (geometry, "mvee",
         span("geometry.mvee",
              set_attr("m", lambda a: np.atleast_2d(a[0]).shape[1]))),
        (geometry, "build_noise_measure", span("geometry.noise_measure")),
        (suites, "orthopoly", span("orthopoly.suite")),
        (suites, "band", span("orthopoly.band_suite")),
        (suites, "kernels", span("kernels.suite")),
        (suites, "geometry", span("geometry.suite")),
    ]


def layer_metrics(spans) -> dict:
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name, top_level=False, where=lambda s: True):
        return sum(s.duration for s in by_name[name]
                   if where(s) and not (top_level and s.parent is not None))

    def ratio(a, b):
        return a / b if b else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    trials = by_name["harness.trial"]
    trains = by_name["learners.train"]
    tiny = [s for s in trains if s.attrs["n"] <= TINY_SIZE]
    iters = sum(s.counts.get("iters", 0) for s in trains)
    products = sum(s.counts.get("gram_products", 0) for s in trains)
    train_s = busy("learners.train")
    points = sum(s.attrs["points"] for s in by_name["measures.sample"])
    sample_s = busy("measures.sample")
    slacks = [s.attrs["slack"] for s in by_name["lemma_lab.band_check"]
              if s.attrs["slack"] is not None]
    grams = [s.attrs["n"] for s in by_name["kernels.gram"]]
    metrics = {
        "harness.trial_s": (busy("harness.trial"), "s"),
        "harness.self_s": (sum(t.duration - sum(c.duration for c in children[t.id])
                               for t in trials), "s"),
        "measures.sample_s": (sample_s, "s"),
        "measures.points": (points, "count"),
        "measures.us_per_point": (ratio(sample_s * 1e6, points), "us"),
        "kernels.gram_s": (busy("kernels.gram"), "s"),
        "kernels.gram_mb": (max(grams, default=0) ** 2 * 8 / 1e6, "MB"),
        "kernels.suite_s": (busy("kernels.suite"), "s"),
        "learners.train_s": (train_s, "s"),
        "learners.iters": (iters, "count"),
        "learners.ms_per_iter": (ratio(train_s * 1e3, iters), "ms"),
        "learners.gram_products_per_iter": (ratio(products, iters), "count"),
        "learners.eval_s": (busy("learners.evaluate"), "s"),
        "learners.eval_points": (sum(s.attrs["points"] for s in
                                     by_name["learners.evaluate"]), "count"),
        "learners.train_objective": (
            statistics.fmean([s.attrs["objective"] for s in trains])
            if trains else 0.0, "loss"),
        "learners.converged_share": (
            ratio(sum(s.attrs["converged"] for s in trains), len(trains)),
            "ratio"),
        "learners.gap_certificate": (
            median([s.attrs["gap_certificate"] for s in trains]), "loss"),
        "learners.tiny_solve_ms": (
            ratio(sum(s.duration for s in tiny) * 1e3, len(tiny)), "ms"),
        "lemma_lab.band_check_s": (busy("lemma_lab.band_check"), "s"),
        "lemma_lab.band_slack": (median(slacks), "ratio"),
        "orthopoly.suite_s": (busy("orthopoly.suite"), "s"),
        "orthopoly.band_suite_s": (busy("orthopoly.band_suite"), "s"),
    }
    for m in MVEE_DIMS:
        # only the workload's own calls, not those nested in a suite or in
        # build_noise_measure
        metrics[f"geometry.mvee_s.m{m}"] = (
            busy("geometry.mvee", True, lambda s, m=m: s.attrs["m"] == m), "s")
    metrics["geometry.noise_measure_s"] = (
        busy("geometry.noise_measure", True), "s")
    metrics["geometry.suite_s"] = (busy("geometry.suite"), "s")
    return metrics


def per_layer(wl):
    """A warm-up, an untraced and a traced pass (and, for the sweep, one pass
    on the pool at threads=CPU count); returns (metrics, info, passes, extra
    checks, trace record)."""
    warmup = wl.run()
    untraced = wl.run()
    tracer = Tracer()
    targets = traced_patches(tracer)
    originals = [lookup(owner, name) for owner, name, _ in targets]
    with patched(targets):
        traced = wl.run()
    restored = all(lookup(owner, name) is original for (owner, name, _), original
                   in zip(targets, originals))
    passes = [warmup, untraced, traced]
    metrics = layer_metrics(tracer.spans)
    metrics["learners.oracle_gap_max"] = (max(traced.oracle_gaps, default=0.0),
                                          "loss")
    metrics["harness.thread_speedup"] = (0.0, "ratio")
    extra_checks = [("trace.attributes_restored", restored, None)]
    if untraced.csv is not None:
        pooled = wl.run(threads=wl.pool_threads)
        passes.append(pooled)
        metrics["harness.thread_speedup"] = (untraced.wall_s / pooled.wall_s,
                                             "ratio")
        extra_checks += [
            ("sweep.csv_traced_equals_untraced", traced.csv == untraced.csv,
             None),
            (f"sweep.csv_threads{wl.pool_threads}_equals_threads1",
             pooled.csv == untraced.csv, None),
        ]
    metrics["bench.trace_overhead"] = (traced.wall_s / untraced.wall_s - 1.0,
                                       "ratio")
    trace = {"spans": [s.to_dict() for s in tracer.spans]}
    return metrics, {}, passes, extra_checks, trace
