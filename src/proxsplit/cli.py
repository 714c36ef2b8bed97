"""Command-line front end.

Four subcommands: ``train`` fits one model (or a one-vs-all family on a
multiclass set) and writes model + trace files; ``bench`` compares several
solvers on one binary task against a long-run reference; ``prox-eval`` and
``w-eval`` print single values of the logistic proximity operator and of
the auxiliary root solve behind it.

One table per command declares the options of ``train`` and ``bench``
(dest -> converter, default, help) and gives their flags, their
``key = value`` config-file keys and their defaults.  Options resolve as
flags > config file > defaults; a file value passes the flag's converter.
Exit codes: 0 success, 1 runtime failure, 2 bad arguments or an invalid
parameter combination.  An error in one option's value names its flag.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .bench import (
    SOLVERS,
    BenchmarkEntry,
    check_entries,
    compute_reference,
    format_summary,
    run_benchmark,
    solver_named,
)
from .baselines import BaselineConfig
from .data import binarize, load_libsvm, one_vs_all_tasks, predict_one_vs_all, to_matrix
from .dr import ETA, DRConfig, resolve_config
from .errors import DomainError, ParseError, ProxsplitError
from .lambert import eval_w
from .model import (
    BlockPartition,
    Problem,
    RegularizerSpec,
    TrainingSet,
    objective,
    sparsity_degree,
    test_error,
)
from .prox import ScalarLoss, loss_beta, prox_logistic

_LOSS_NAMES = tuple(loss.value for loss in ScalarLoss)
_REG_NAMES = ("l1", "group-l2")


def _choice(options):
    """Converter accepting one of `options`; argparse gets them as choices."""

    def convert(text):
        if text not in options:
            raise ValueError("expected one of %s, got %r" % (", ".join(options), text))
        return text

    convert.options = tuple(options)
    return convert


# The only declaration of each command's options: dest -> (converter,
# default, help).  A None default means unset; rho's default depends on the
# solver and is picked in _solver_config.
_COMMON_SPEC = {
    "data": (str, None, "training set, sparse text format"),
    "test": (str, None, "held-out set for the error report"),
    "loss": (_choice(_LOSS_NAMES), "logistic", "margin loss (default logistic)"),
    "reg": (_choice(_REG_NAMES), "l1", "regularizer (default l1)"),
    "lam": (float, 1.0, "regularization weight"),
    "blocks": (int, 1, "number of coordinate blocks"),
    "batch": (int, 1000, "samples activated per iteration"),
    "iters": (int, 1000, "iteration budget"),
    "seed": (int, 0, "RNG seed"),
    "gamma": (float, 1.0, "dual step size"),
    "tau": (float, 1.0, "primal step size"),
    "mu": (float, 1.5, "relaxation in (%g, %g)" % (ETA, 2.0 - ETA)),
    "rho": (float, None, "strong-convexity shift (default 0.1 for dr on the logistic loss, else 0)"),
    "step_c": (float, 0.1, "sfb/rda step constant"),
    "trace_stride": (int, 10, "record period"),
    "plateau_window": (int, None, "early-stop window"),
    "plateau_rtol": (float, 1e-10, "early-stop tolerance"),
    "positive_class": (float, None, "label mapped to +1 (binary task)"),
}
_SOLVER_NAME = _choice(sorted(SOLVERS))
_TRAIN_SPEC = dict(
    _COMMON_SPEC,
    solver=(_SOLVER_NAME, "dr", "solver (default dr)"),
    out=(str, ".", "output directory (default .)"),
)
_BENCH_SPEC = dict(
    _COMMON_SPEC,
    solvers=(str, "dr,sfb,rda,bcpd", "comma list (default dr,sfb,rda,bcpd)"),
    ref_solver=(_SOLVER_NAME, "dr", "reference solver (default dr)"),
    ref_factor=(int, 20, "reference budget multiplier"),
    out=(str, None, "directory for trace + summary CSVs"),
)


# library parameter -> the option that sets it, where the two names differ
_OPTION_OF = {"batch_size": "batch", "max_iters": "iters", "long_run_factor": "ref_factor",
              "num_blocks": "blocks"}


def _flag(dest):
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


def _error_text(exc):
    """The message of a DomainError, with the flag in place of the library
    parameter when the check of one option's value failed."""
    dest = _OPTION_OF.get(exc.parameter, exc.parameter)
    if dest in _TRAIN_SPEC or dest in _BENCH_SPEC:
        return "%s %s" % (_flag(dest), exc.detail)
    return str(exc)


def _read_config(path, spec):
    """key = value lines -> {dest: raw string}; keys follow the flag names."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ParseError("expected 'key = value', got %r" % stripped, line_number=lineno)
            dest = key.strip().replace("-", "_")
            if dest == "lambda":
                dest = "lam"
            if dest not in spec:
                raise DomainError(
                    "unknown config key %r (line %d); known keys: %s"
                    % (key.strip(), lineno, ", ".join(sorted(spec)))
                )
            values[dest] = value.strip()
    return values


def _merge(args, spec):
    """{dest: value}, each from its flag, else the config file, else the default."""
    file_values = {} if args.config is None else _read_config(args.config, spec)
    merged = {}
    for key, (convert, default, _) in spec.items():
        value = getattr(args, key)
        if value is None and key in file_values:
            try:
                value = convert(file_values[key])
            except (TypeError, ValueError) as exc:
                raise DomainError("config key %s: %s" % (key, exc)) from None
        merged[key] = default if value is None else value
    return merged


def save_model(path, w, problem):
    """Plain-text model: five header lines, then one weight per line."""
    w = np.asarray(w, dtype=float)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("n_features %d\n" % problem.n_features)
        handle.write("blocks %d\n" % problem.num_blocks)
        handle.write("lambda %s\n" % format(problem.reg.lam, ".17g"))
        handle.write("kappa %s\n" % " ".join(map(str, problem.kappas)))
        handle.write("loss %s\n" % problem.loss.value)
        for value in w:
            handle.write(format(value, ".17g") + "\n")


def load_model(path):
    """Inverse of save_model: returns (weights, header dict).

    Raises ParseError, with the line number, on a missing or malformed
    header line, blocks outside [1, n_features], a kappa count other than
    blocks or a kappa other than 1 or 2, an unknown loss, a negative or
    non-finite lambda, a malformed or non-finite weight, or a weight count
    other than n_features.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    expected = ("n_features", "blocks", "lambda", "kappa", "loss")
    meta = {}
    for lineno, key in enumerate(expected, start=1):
        if lineno > len(lines):
            raise ParseError("missing header line %r" % key, line_number=lineno)
        name, _, rest = lines[lineno - 1].partition(" ")
        if name != key:
            raise ParseError("expected header %r, got %r" % (key, name), line_number=lineno)
        try:
            if key in ("n_features", "blocks"):
                meta[key] = int(rest)
            elif key == "lambda":
                meta[key] = float(rest)
            elif key == "kappa":
                meta[key] = tuple(int(tok) for tok in rest.split())
            else:
                meta[key] = ScalarLoss(rest.strip()).value
        except ValueError:
            raise ParseError("bad header value %r" % rest, line_number=lineno) from None
    for lineno, ok, message in (
        (2, 1 <= meta["blocks"] <= meta["n_features"],
         "blocks %d outside [1, n_features = %d]" % (meta["blocks"], meta["n_features"])),
        (3, math.isfinite(meta["lambda"]) and meta["lambda"] >= 0.0,
         "lambda must be finite and >= 0, got %r" % meta["lambda"]),
        (4, len(meta["kappa"]) == meta["blocks"],
         "%d kappa values for %d blocks" % (len(meta["kappa"]), meta["blocks"])),
        (4, set(meta["kappa"]) <= {1, 2},
         "kappa values must be 1 or 2, got %r" % (meta["kappa"],)),
    ):
        if not ok:
            raise ParseError(message, line_number=lineno)
    weights = []
    for lineno, line in enumerate(lines[len(expected):], start=len(expected) + 1):
        if line.strip():
            try:
                weights.append(float(line))
            except ValueError:
                raise ParseError("bad weight %r" % line, line_number=lineno) from None
            if not math.isfinite(weights[-1]):
                raise ParseError("non-finite weight %r" % line, line_number=lineno)
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != meta["n_features"]:
        raise ParseError(
            "expected %d weights, found %d" % (meta["n_features"], w.shape[0])
        )
    return w, meta


def _solver_config(merged, solver, n_samples):
    """DRConfig or BaselineConfig for one solver from the merged options.

    rho defaults to 0.1 for dr on a loss with a gradient Lipschitz constant
    (the logistic loss), the one case with rho > 0, and to 0 otherwise; an
    explicit rho is passed on as given so the runner can reject it by name.
    """
    batch = min(merged["batch"], n_samples)
    common = dict(
        batch_size=batch,
        seed=merged["seed"],
        max_iters=merged["iters"],
        trace_stride=merged["trace_stride"],
        plateau_window=merged["plateau_window"],
        plateau_rtol=merged["plateau_rtol"],
    )
    if solver in ("dr", "dr-simplified"):
        rho = merged["rho"]
        if rho is None:
            shifted = solver == "dr" and loss_beta(ScalarLoss(merged["loss"])) is not None
            rho = 0.1 if shifted else 0.0
        return DRConfig(
            tau=merged["tau"], gamma=merged["gamma"], rho=rho, mu=merged["mu"], **common
        )
    return BaselineConfig(step_c=merged["step_c"], tau=merged["tau"], **common)


def _load_datasets(merged):
    if merged["data"] is None:
        raise DomainError("missing required option --data")
    raw = load_libsvm(merged["data"])
    raw_test = None if merged["test"] is None else load_libsvm(merged["test"])
    n_features = raw.n_features
    if raw_test is not None:
        n_features = max(n_features, raw_test.n_features)
    if n_features == 0:
        raise DomainError("dataset %s declares no features" % merged["data"])
    if raw.n_samples == 0:
        raise DomainError("dataset %s has no samples" % merged["data"])
    return raw, raw_test, n_features


def _binary_task(merged, raw, raw_test, n_features):
    """Train and test sets (test None without --test) with y = +1 on
    --positive-class, by default the larger of the two training labels.
    The training set must hold that class; the test set need not."""
    positive = merged["positive_class"]
    if positive is None:
        classes = raw.class_labels()
        if len(classes) != 2:
            raise DomainError(
                "a binary task needs two classes; dataset has %d, pass --positive-class"
                % len(classes)
            )
        positive = classes[1]
    tset = binarize(raw, positive, n_features=n_features)
    if raw_test is None:
        return tset, None
    features, labels = to_matrix(raw_test, n_features=n_features)
    return tset, TrainingSet(features=features, labels=np.where(labels == positive, 1.0, -1.0))


def _make_problem(tset, n_features, merged):
    kappa = 1 if merged["reg"] == "l1" else 2
    return Problem(
        data=tset,
        partition=BlockPartition.contiguous(n_features, merged["blocks"]),
        reg=RegularizerSpec(lam=merged["lam"], kappa=kappa),
        loss=ScalarLoss(merged["loss"]),
    )


def _label_text(label):
    return format(label, "g")


def _cmd_train(args):
    merged = _merge(args, _TRAIN_SPEC)
    run_solver = solver_named(merged["solver"])
    raw, raw_test, n_features = _load_datasets(merged)
    one_vs_all = merged["positive_class"] is None and len(raw.class_labels()) != 2
    if one_vs_all:
        tasks = one_vs_all_tasks(raw, n_features=n_features)
    else:
        tset, test_set = _binary_task(merged, raw, raw_test, n_features)
        tasks = [(None, tset)]

    config = _solver_config(merged, merged["solver"], tasks[0][1].n_samples)
    probe = _make_problem(tasks[0][1], n_features, merged)
    if isinstance(config, DRConfig):
        # reject bad combinations before any work; the tasks run with the rho
        # it resolved, so a forced rho warns once
        config = dataclasses.replace(config, rho=resolve_config(probe, config).rho)
    out_dir = merged["out"]
    os.makedirs(out_dir, exist_ok=True)

    weights = []
    for label, tset in tasks:
        problem = _make_problem(tset, n_features, merged)
        w, trace = run_solver(problem, config)
        suffix = "" if label is None else "_" + _label_text(label)
        save_model(os.path.join(out_dir, "model%s.txt" % suffix), w, problem)
        trace.write_csv(os.path.join(out_dir, "trace%s.csv" % suffix))
        tag = "" if label is None else "class %s: " % _label_text(label)
        print(
            "%sobjective %.6e, zeros %.2f%%"
            % (tag, objective(problem, w), 100.0 * sparsity_degree(w, tol=0.0))
        )
        weights.append((label, w))

    if raw_test is not None:
        if not one_vs_all:
            print("test error %.2f%%" % (100.0 * test_error(weights[0][1], test_set)))
        else:
            features, labels = to_matrix(raw_test, n_features=n_features)
            predicted = predict_one_vs_all(weights, features)
            print("test error %.2f%%" % (100.0 * float(np.mean(predicted != labels))))
    return 0


def _cmd_bench(args):
    merged = _merge(args, _BENCH_SPEC)
    names = [name.strip() for name in merged["solvers"].split(",") if name.strip()]
    raw, raw_test, n_features = _load_datasets(merged)
    tset, test_set = _binary_task(merged, raw, raw_test, n_features)
    problem = _make_problem(tset, n_features, merged)
    if not names:
        print(format_summary([]))
        return 0

    entries = [
        BenchmarkEntry(
            name=name, solver=name, config=_solver_config(merged, name, tset.n_samples)
        )
        for name in names
    ]
    check_entries(entries)
    ref_config = _solver_config(merged, merged["ref_solver"], tset.n_samples)
    reference = compute_reference(
        problem, merged["ref_solver"], ref_config, long_run_factor=merged["ref_factor"]
    )
    rows = run_benchmark(
        problem, entries, reference=reference, out_dir=merged["out"], test_set=test_set
    )
    print(format_summary(rows))
    return 0


def _cmd_prox_eval(args):
    print(format(float(prox_logistic(args.v, args.gamma)), ".17g"))
    return 0


def _cmd_w_eval(args):
    print(format(eval_w(args.r, args.v).value, ".17g"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="Sparse linear classification via proximal splitting solvers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, spec, handler, help_text in (
        ("train", _TRAIN_SPEC, _cmd_train, "fit a model and write model + trace files"),
        ("bench", _BENCH_SPEC, _cmd_bench, "compare solvers against a reference run"),
    ):
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--config", metavar="FILE", help="key = value option file")
        for dest, (convert, _, option_help) in spec.items():
            choices = getattr(convert, "options", None)
            command.add_argument(
                _flag(dest),
                dest=dest,
                type=None if choices else convert,
                choices=choices,
                help=option_help,
            )
        command.set_defaults(handler=handler)

    prox = commands.add_parser("prox-eval", help="print the logistic prox at one point")
    prox.add_argument("--v", type=float, required=True, help="evaluation point")
    prox.add_argument("--gamma", type=float, default=1.0, help="prox step (default 1)")
    prox.set_defaults(handler=_cmd_prox_eval)

    weval = commands.add_parser("w-eval", help="print the root of w exp(w) + r w = v")
    weval.add_argument("--r", type=float, required=True, help="linear coefficient")
    weval.add_argument("--v", type=float, required=True, help="right-hand side")
    weval.set_defaults(handler=_cmd_w_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except DomainError as exc:
        print("error: %s" % _error_text(exc), file=sys.stderr)
        return 2
    except (ProxsplitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
