"""Command-line entry point.

Subcommands: gen, train, eval, gap, sweep, verify.
Exit codes: 0 success, 1 usage error, 2 verification failure,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import harness, learners, measures
from .harness import ExperimentConfig, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NONCONVERGENCE = 3


def _load_configs(path):
    if path is None:
        raise UsageError("--config is required for this subcommand")
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return [ExperimentConfig(**c) for c in doc]
    return [ExperimentConfig(**doc)]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dataset_csv(X, y) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i}" for i in range(X.shape[1])] + ["label"])
    for x, label in zip(X, y):
        writer.writerow([repr(float(v)) for v in x] + [int(label)])
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgl",
        description="Hard-distribution experiments for large-margin learning",
    )
    parser.add_argument("command",
                        choices=["gen", "train", "eval", "gap", "sweep",
                                 "verify"])
    parser.add_argument("--config", help="experiment config JSON path")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("MGL_THREADS", "1")))
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--model", help="trained model JSON (for eval)")
    parser.add_argument("--suite", default="all",
                        help="verify suite: orthopoly, band, kernels, "
                             "geometry, all")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args)
    except (UsageError, measures.SpecError, FileNotFoundError,
            json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "verify":
        passed, report = harness.verify_lemmas(args.suite)
        _emit(json.dumps(report, indent=2, default=float) + "\n", args.out)
        return EXIT_OK if passed else EXIT_VERIFY

    configs = _load_configs(args.config)
    if args.seed is not None:
        for c in configs:
            c.seed = args.seed
    config = configs[0]

    if args.command == "gap":
        report = harness.run_gap_experiment(config)
        if args.format == "json":
            _emit(report.to_json() + "\n", args.out)
        else:
            _emit(harness.sweep_to_csv(report.rows), args.out)
        # non-convergence is carried in the solver_gap column here; only the
        # train subcommand maps it to exit code 3
        return EXIT_OK

    if args.command == "sweep":
        rows = harness.sweep(configs, threads=args.threads)
        if args.format == "json":
            _emit(json.dumps(rows, sort_keys=True, default=float) + "\n",
                  args.out)
        else:
            _emit(harness.sweep_to_csv(rows), args.out)
        return EXIT_OK

    trial = harness.Trial(config, config.seed)

    if args.command == "gen":
        _emit(_dataset_csv(*trial.train_data), args.out)
        return EXIT_OK

    if args.command == "train":
        model = trial.model
        doc = json.loads(model.to_json())
        doc["config"] = json.loads(config.to_json())
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return EXIT_OK if model.converged else EXIT_NONCONVERGENCE

    if args.command == "eval":
        if args.model:
            with open(args.model) as fh:
                doc = json.load(fh)
            model_config = ExperimentConfig(**doc["config"])
            model = learners.KernelModel(
                support=np.array(doc["support"]),
                alpha=np.array(doc["alpha"]),
                b=doc["b"], C=doc["C"],
                kernel=model_config.make_kernel(),
                loss=model_config.make_loss(),
            )
        else:
            model = trial.model
        _emit(json.dumps(trial.evaluate(model), sort_keys=True) + "\n",
              args.out)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
