"""End-to-end tests of the command line driven in process through main()."""

import argparse
import pathlib
import re
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import proxsplit as px
from proxsplit import cli
from proxsplit.errors import ParseError
from conftest import FINITE_FLOATS, make_problem

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "train.txt"
    lines = []
    for i in range(12):
        lab = 1 if i % 2 == 0 else -1
        lines.append("%d %d:%.1f 4:%.1f" % (lab, 1 + i % 3, 0.5 + i, -1.0 * lab))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def multiclass_file(tmp_path):
    path = tmp_path / "multi.txt"
    path.write_text("0 1:1 2:0.5\n1 1:2 3:-1\n2 2:1 4:0.3\n"
                    "0 1:0.8\n1 3:1\n2 4:-0.5\n")
    return str(path)


# ------------------------------------------------------------- evaluators

def test_prox_eval_prints_value(capsys):
    assert cli.main(["prox-eval", "--v", "0", "--gamma", "1"]) == 0
    assert capsys.readouterr().out.startswith("0.401058137541547")


def test_w_eval_prints_root(capsys):
    assert cli.main(["w-eval", "--r", "1", "--v", "1"]) == 0
    assert capsys.readouterr().out.startswith("0.401058137541547")


def test_argparse_failures_return_two(capsys):
    assert cli.main(["prox-eval"]) == 2                      # missing required
    assert cli.main(["train", "--loss", "bogus"]) == 2       # invalid choice
    capsys.readouterr()


def test_domain_errors_return_two(binary_file, capsys):
    assert cli.main(["train"]) == 2
    assert "missing required option --data" in capsys.readouterr().err
    assert cli.main(["prox-eval", "--v", "0", "--gamma", "0"]) == 2
    assert "gamma must be positive" in capsys.readouterr().err
    assert cli.main(["train", "--data", binary_file, "--rho", "10"]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["dr", "dr-simplified", "sfb", "rda", "bcpd"])
def test_bad_loop_option_returns_two_for_every_solver(binary_file, tmp_path, solver, capsys):
    args = ["train", "--data", binary_file, "--solver", solver, "--trace-stride", "0",
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    assert "error: --trace-stride must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("options,message", [
    (["--seed", "-1"], "error: --seed must be >= 0 and be an integer, got -1\n"),
    (["--plateau-window", "2", "--plateau-rtol", "-1"],
     "error: --plateau-rtol must be nonnegative and finite, got -1.0\n"),
    (["--batch", "0"], "error: --batch must lie in [1, 12] and be an integer, got 0\n"),
    (["--lambda", "-1"], "error: --lambda must be nonnegative and finite, got -1.0\n"),
    (["--blocks", "0"], "error: --blocks must lie in [1, 4] and be an integer, got 0\n"),
    (["--iters", "-1"], "error: --iters must be >= 0 and be an integer, got -1\n"),
])
def test_bad_numbers_exit_two_with_an_error_line(binary_file, tmp_path, options, message, capsys):
    args = ["train", "--data", binary_file, "--iters", "5", "--out", str(tmp_path / "out")]
    assert cli.main(args + options) == 2
    assert capsys.readouterr().err == message  # one error line, no traceback


@pytest.mark.parametrize("options,message", [
    (["--ref-factor", "0"], "error: --ref-factor must be >= 1 and be an integer, got 0\n"),
    (["--iters", "-1"], "error: --iters must be >= 0 and be an integer, got -1\n"),
])
def test_bench_error_lines_name_the_flag(binary_file, options, message, capsys):
    # the library parameters are long_run_factor and max_iters
    assert cli.main(["bench", "--data", binary_file] + options) == 2
    assert capsys.readouterr().err == message


def test_missing_and_malformed_data_return_one(tmp_path, capsys):
    assert cli.main(["train", "--data", str(tmp_path / "nope.txt")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0:1\n")
    assert cli.main(["train", "--data", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


# ------------------------------------------------------------------ train

def test_train_writes_model_and_trace(binary_file, tmp_path, capsys):
    out = tmp_path / "fit"
    rc = cli.main(["train", "--data", binary_file, "--iters", "50",
                   "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("objective ")
    assert "zeros" in stdout
    model = out / "model.txt"
    head = model.read_text().splitlines()
    assert head[0] == "n_features 4"
    assert head[1] == "blocks 1"
    assert head[2] == "lambda 1"
    assert head[4] == "loss logistic"
    trace = px.ConvergenceTrace.from_csv((out / "trace.csv").read_text())
    assert trace.final.iteration == 50
    w, meta = cli.load_model(str(model))
    assert w.shape == (4,)
    assert meta["lambda"] == 1.0


def test_train_keeps_the_requested_block_count(binary_file, tmp_path):
    # 4 features in 3 blocks: sizes 2, 1, 1 (not 2 blocks of 2)
    out = tmp_path / "fit"
    assert cli.main(["train", "--data", binary_file, "--blocks", "3", "--iters", "10",
                     "--out", str(out)]) == 0
    assert (out / "model.txt").read_text().splitlines()[1] == "blocks 3"


def test_train_reports_test_error(binary_file, tmp_path, capsys):
    rc = cli.main(["train", "--data", binary_file, "--test", binary_file,
                   "--iters", "30", "--out", str(tmp_path / "fit")])
    assert rc == 0
    assert "test error" in capsys.readouterr().out


@pytest.fixture
def negatives_file(tmp_path):
    """A held-out file whose samples all have the label -1."""
    path = tmp_path / "negatives.txt"
    path.write_text("-1 1:0.5 4:1\n-1 2:3.5 4:1\n-1 3:-2 4:-1\n")
    return str(path)


def test_train_test_set_needs_no_positive_sample(binary_file, negatives_file, tmp_path,
                                                 capsys):
    # the held-out labels are mapped against the training set's positive
    # class (1), which the held-out file does not hold
    out = tmp_path / "fit"
    assert cli.main(["train", "--data", binary_file, "--test", negatives_file,
                     "--iters", "30", "--out", str(out)]) == 0
    w, _ = cli.load_model(out / "model.txt")
    features, _ = px.to_matrix(px.load_libsvm(negatives_file), n_features=4)
    error = 100.0 * float(np.mean(px.predict(w, features) == 1.0))
    assert capsys.readouterr().out.splitlines()[-1] == "test error %.2f%%" % error


def test_config_file_precedence(binary_file, tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("lam = 0.25\niters = 30\n")

    def lam_line(out_dir):
        return (out_dir / "model.txt").read_text().splitlines()[2]

    o1 = tmp_path / "o1"
    assert cli.main(["train", "--data", binary_file, "--config", str(cfg),
                     "--out", str(o1)]) == 0
    assert lam_line(o1) == "lambda 0.25"
    o2 = tmp_path / "o2"
    assert cli.main(["train", "--data", binary_file, "--config", str(cfg),
                     "--lambda", "2.0", "--out", str(o2)]) == 0
    assert lam_line(o2) == "lambda 2"  # explicit flag wins over the file


def test_unknown_config_key_lists_known_keys(binary_file, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("bogus_key = 1\n")
    assert cli.main(["train", "--data", binary_file, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config key 'bogus_key'" in err
    assert "known keys:" in err


def command_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


LOSSES = ("logistic", "hinge_q1", "hinge_q2", "huber")
SOLVER_NAMES = ("bcpd", "dr", "dr-simplified", "rda", "sfb")
COMMON_OPTIONS = [
    ("--config", "config", None), ("--data", "data", None), ("--test", "test", None),
    ("--loss", "loss", LOSSES), ("--reg", "reg", ("l1", "group-l2")),
    ("--lambda", "lam", None), ("--blocks", "blocks", None), ("--batch", "batch", None),
    ("--iters", "iters", None), ("--seed", "seed", None), ("--gamma", "gamma", None),
    ("--tau", "tau", None), ("--mu", "mu", None), ("--rho", "rho", None),
    ("--step-c", "step_c", None), ("--trace-stride", "trace_stride", None),
    ("--plateau-window", "plateau_window", None), ("--plateau-rtol", "plateau_rtol", None),
    ("--positive-class", "positive_class", None),
]
COMMON_DEFAULTS = dict(
    data=None, test=None, loss="logistic", reg="l1", lam=1.0, blocks=1, batch=1000,
    iters=1000, seed=0, gamma=1.0, tau=1.0, mu=1.5, rho=None, step_c=0.1, trace_stride=10,
    plateau_window=None, plateau_rtol=1e-10, positive_class=None,
)


@pytest.mark.parametrize("command,extra_options,extra_defaults", [
    ("train", [("--solver", "solver", SOLVER_NAMES), ("--out", "out", None)],
     dict(solver="dr", out=".")),
    ("bench", [("--solvers", "solvers", None), ("--ref-solver", "ref_solver", SOLVER_NAMES),
               ("--ref-factor", "ref_factor", None), ("--out", "out", None)],
     dict(solvers="dr,sfb,rda,bcpd", ref_solver="dr", ref_factor=20, out=None)),
])
def test_option_tables_give_the_flags_and_defaults(command, extra_options, extra_defaults):
    parser = command_parsers()[command]
    options = [(a.option_strings[0], a.dest, None if a.choices is None else tuple(a.choices))
               for a in parser._actions if a.dest != "help"]
    assert options == COMMON_OPTIONS + extra_options
    spec = cli._TRAIN_SPEC if command == "train" else cli._BENCH_SPEC
    assert cli._merge(parser.parse_args([]), spec) == dict(COMMON_DEFAULTS, **extra_defaults)


def test_readme_option_list_matches_the_parsers():
    section = README.read_text().split("## Options and config files", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parsed = {flag for name in ("train", "bench") for a in command_parsers()[name]._actions
              for flag in a.option_strings if flag not in ("-h", "--help")}
    assert documented == parsed


def test_readme_quick_start_shows_what_the_commands_print(tmp_path, capsys):
    # the quick start runs train and bench on the tiny.txt it writes out
    # and shows their output, run1/model.txt and the head of run1/trace.csv
    text = README.read_text()
    tiny = tmp_path / "tiny.txt"
    tiny.write_text(text.split("saved as\n`tiny.txt`:\n\n```\n", 1)[1].split("```", 1)[0])
    run1, bench1 = tmp_path / "run1", tmp_path / "bench1"
    assert cli.main(["train", "--data", str(tiny), "--lambda", "0.1", "--iters", "200", "--out", str(run1)]) == 0
    assert cli.main(["bench", "--data", str(tiny), "--lambda", "0.1", "--iters", "100", "--solvers", "dr,sfb",
                     "--out", str(bench1)]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert "\n%s\n" % line.rstrip() in text
    # full-precision values within 1e-12 relative: another BLAS build may
    # move their last bits
    model = (run1 / "model.txt").read_text().splitlines()
    shown = text.split("\n" + model[0] + "\n", 1)[1].splitlines()[:len(model) - 1]
    assert shown[:4] == model[1:5]
    assert np.allclose([float(v) for v in shown[4:]], [float(v) for v in model[5:]], rtol=1e-12, atol=0)
    for row in (run1 / "trace.csv").read_text().splitlines()[2:4]:
        iteration, _, objective, rest = row.split(",", 3)
        found = re.search(r"^%s,[0-9.e-]+,([0-9.e-]+),%s$" % (iteration, re.escape(rest)), text, re.M)
        assert found and float(found.group(1)) == pytest.approx(float(objective), rel=1e-12, abs=0)


def test_rho_defaults_per_solver_and_an_explicit_rho_is_kept(binary_file, tmp_path, capsys):
    merged = dict(COMMON_DEFAULTS)
    assert cli._solver_config(merged, "dr", 12).rho == 0.1
    assert cli._solver_config(merged, "dr-simplified", 12).rho == 0.0
    merged["rho"] = 0.1
    assert cli._solver_config(merged, "dr-simplified", 12).rho == 0.1
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("rho = 0.1\n")
    for source in (["--rho", "0.1"], ["--config", str(cfg)]):
        assert cli.main(["train", "--data", binary_file, "--solver", "dr-simplified",
                         "--iters", "5", "--out", str(tmp_path / "o")] + source) == 2
        assert "rho" in capsys.readouterr().err


def test_rho_defaults_to_zero_off_the_logistic_loss_without_a_warning(binary_file, tmp_path):
    merged = dict(COMMON_DEFAULTS, loss="hinge_q2")
    assert cli._solver_config(merged, "dr", 12).rho == 0.0
    args = ["train", "--data", binary_file, "--loss", "hinge_q2", "--iters", "5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(args + ["--out", str(tmp_path / "default")]) == 0
    assert [str(w.message) for w in caught] == []
    assert cli.main(args + ["--rho", "0", "--out", str(tmp_path / "zero")]) == 0
    assert ((tmp_path / "default" / "model.txt").read_bytes()
            == (tmp_path / "zero" / "model.txt").read_bytes())


@pytest.mark.parametrize("data, models", [
    ("binary_file", ["model.txt"]),
    ("multiclass_file", ["model_0.txt", "model_1.txt", "model_2.txt"]),
])
def test_a_forced_rho_warns_once_per_train(data, models, tmp_path, request):
    # the probe resolves the config and warns; the tasks run with its rho
    args = ["train", "--data", request.getfixturevalue(data), "--loss", "hinge_q2",
            "--iters", "5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(args + ["--rho", "0.1", "--out", str(tmp_path / "forced")]) == 0
    assert [str(w.message) for w in caught] == [
        "rho forced to 0: rho > 0 is implemented for the logistic loss only, not hinge_q2"]
    assert cli.main(args + ["--rho", "0", "--out", str(tmp_path / "zero")]) == 0
    for name in models:
        assert ((tmp_path / "forced" / name).read_bytes()
                == (tmp_path / "zero" / name).read_bytes())


def test_solver_names_are_checked_from_flags_and_the_config_file(binary_file, tmp_path,
                                                                 capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("solver = bogus\n")
    assert cli.main(["train", "--data", binary_file, "--config", str(cfg)]) == 2
    assert "config key solver: expected one of bcpd, dr," in capsys.readouterr().err
    cfg.write_text("ref-solver = bogus\n")
    assert cli.main(["bench", "--data", binary_file, "--config", str(cfg)]) == 2
    assert "config key ref_solver: expected one of" in capsys.readouterr().err
    assert cli.main(["bench", "--data", binary_file, "--ref-solver", "bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert cli.main(["bench", "--data", binary_file, "--solvers", "dr,bogus"]) == 2
    assert "unknown solver 'bogus'; known: bcpd, dr," in capsys.readouterr().err


def test_bench_rejects_duplicate_solvers_before_the_reference_run(binary_file, capsys,
                                                                   monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("compute_reference ran")

    monkeypatch.setattr(cli, "compute_reference", no_reference)
    assert cli.main(["bench", "--data", binary_file, "--solvers", "dr,dr"]) == 2
    assert "duplicate benchmark entry name 'dr'" in capsys.readouterr().err


def test_train_one_vs_all(multiclass_file, tmp_path, capsys):
    out = tmp_path / "ova"
    rc = cli.main(["train", "--data", multiclass_file, "--iters", "30",
                   "--out", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["model_0.txt", "model_1.txt", "model_2.txt",
                     "trace_0.csv", "trace_1.csv", "trace_2.csv"]
    stdout = capsys.readouterr().out
    for cls in (0, 1, 2):
        assert ("class %d:" % cls) in stdout


def stamp_solver_runs(monkeypatch, keys):
    """Wrap SOLVERS[key] for each key so that every solver call appends a
    fresh list, which collects the perf_counter reading of each of the
    call's callbacks."""
    runs = []
    for key in keys:
        def timed(problem, config, solver=px.SOLVERS[key], **kwargs):
            stamps = []
            runs.append(stamps)
            return solver(problem, config, **kwargs,
                          callback=lambda iteration, w: stamps.append(time.perf_counter()))

        monkeypatch.setitem(px.SOLVERS, key, timed)
    return runs


def assert_one_after_another(runs, count):
    assert len(runs) == count and all(runs)
    for earlier, later in zip(runs, runs[1:]):
        assert earlier[-1] < later[0]


def test_solver_runs_follow_one_another(multiclass_file, tmp_path, monkeypatch):
    runs = stamp_solver_runs(monkeypatch, ["dr", "sfb", "rda", "bcpd"])
    problem = px.Problem(
        data=px.binarize(px.load_libsvm(multiclass_file), positive_class=1),
        partition=px.BlockPartition.contiguous(4, 2),
        reg=px.RegularizerSpec(lam=0.1, kappa=1),
        loss=px.ScalarLoss.LOGISTIC,
    )
    baseline = px.BaselineConfig(tau=0.05, max_iters=20)
    entries = [px.BenchmarkEntry(name=key, solver=key, config=config) for key, config in
               [("bcpd", baseline), ("dr", px.DRConfig(max_iters=20)), ("rda", baseline),
                ("sfb", baseline)]]
    px.run_benchmark(problem, entries)
    assert_one_after_another(runs, len(entries))

    runs.clear()
    assert cli.main(["train", "--data", multiclass_file, "--iters", "20",
                     "--out", str(tmp_path / "ova")]) == 0
    assert_one_after_another(runs, 3)


def test_train_binarizes_with_positive_class(multiclass_file, tmp_path):
    out = tmp_path / "bin"
    rc = cli.main(["train", "--data", multiclass_file, "--positive-class", "1",
                   "--iters", "30", "--out", str(out)])
    assert rc == 0
    assert (out / "model.txt").exists()


@pytest.mark.parametrize("solver", ["sfb", "rda", "bcpd", "dr-simplified"])
def test_train_with_each_solver(binary_file, tmp_path, solver):
    out = tmp_path / solver
    args = ["train", "--data", binary_file, "--solver", solver,
            "--iters", "40", "--out", str(out)]
    if solver == "bcpd":
        args += ["--tau", "0.05"]
    assert cli.main(args) == 0
    assert (out / "model.txt").exists()


# ------------------------------------------------------------------ bench

def test_bench_writes_summary(binary_file, tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--data", binary_file, "--iters", "40",
                   "--solvers", "dr,sfb", "--ref-factor", "5", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["dr.csv", "sfb.csv", "summary.csv"]
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("name")
    assert "dr" in table and "sfb" in table


def test_bench_reports_test_error_with_the_positive_class(multiclass_file, tmp_path,
                                                          capsys):
    rc = cli.main(["bench", "--data", multiclass_file, "--test", multiclass_file,
                   "--positive-class", "2", "--iters", "20", "--solvers", "sfb",
                   "--ref-factor", "2", "--plateau-window", "5", "--out", str(tmp_path / "b")])
    assert rc == 0
    row = (tmp_path / "b" / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["sfb", "sfb"] and row[4] != ""


def test_bench_test_set_needs_no_positive_sample(binary_file, negatives_file, tmp_path,
                                                 capsys):
    out = tmp_path / "b"
    assert cli.main(["bench", "--data", binary_file, "--test", negatives_file,
                     "--iters", "40", "--solvers", "sfb", "--ref-factor", "5",
                     "--out", str(out)]) == 0
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["sfb", "sfb"] and row[4] != ""


def test_bench_multiclass_needs_positive_class(multiclass_file, capsys):
    assert cli.main(["bench", "--data", multiclass_file]) == 2
    assert "positive-class" in capsys.readouterr().err.replace("_", "-")


def test_train_and_bench_report_the_vector_they_return(tmp_path, capsys):
    # dr's trace records the primal iterate, while run returns, train saves
    # and bench summarizes its prox image: what train prints and the summary
    # row are of that returned vector
    problem = make_problem(20, 100, 4, lam=3, seed=123)
    config = px.DRConfig(rho=0.1, max_iters=5)
    w, trace = px.run(problem, config)
    reference, _ = px.run(problem, px.DRConfig(rho=0.1, max_iters=200))
    [row] = px.run_benchmark(problem, [px.BenchmarkEntry("dr", "dr", config)],
                             reference=reference)
    assert row.objective == px.objective(problem, w) != trace.final.objective
    assert row.dist_ref == float(np.linalg.norm(w - reference))

    data = tmp_path / "train.txt"
    labels = tuple(problem.data.labels)
    data.write_text(px.serialize_libsvm(px.RawDataset(labels, problem.data.features)))
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--lambda", "3", "--blocks", "4",
                     "--rho", "0.1", "--iters", "5", "--out", str(out)]) == 0
    saved, _ = cli.load_model(str(out / "model.txt"))
    shown = capsys.readouterr().out.splitlines()[0]
    assert shown.startswith("objective %.6e," % px.objective(problem, saved))
    last = px.ConvergenceTrace.from_csv((out / "trace.csv").read_text()).final
    assert "%.6e" % last.objective not in shown


# ------------------------------------------------------------ model files

@st.composite
def models(draw):
    n = draw(st.integers(1, 12))
    kappas = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=n)))
    lam = draw(st.one_of(st.sampled_from((0.0, 5e-324, 1.7976931348623157e308)),
                         st.floats(0.0, allow_infinity=False)))
    w = np.array(draw(st.lists(FINITE_FLOATS, min_size=n, max_size=n)), dtype=float)
    return w, lam, kappas, draw(st.sampled_from(px.ScalarLoss))


@settings(max_examples=100, deadline=None)
@given(model=models())
@example(model=(np.array([0.0, -1.5, 2.5e-17, 3.0]), 0.75, (2, 2), px.ScalarLoss.HUBER))
def test_model_round_trip(model, tmp_path_factory):
    w0, lam, kappas, loss = model
    n = w0.shape[0]
    tset = px.TrainingSet(features=sp.csr_matrix((1, n)), labels=np.array([1.0]))
    prob = px.Problem(data=tset, partition=px.BlockPartition.contiguous(n, len(kappas)),
                      reg=px.RegularizerSpec(lam=lam, kappa=kappas), loss=loss)
    path = tmp_path_factory.mktemp("model") / "model.txt"
    cli.save_model(str(path), w0, prob)
    w, meta = cli.load_model(str(path))
    assert w.view(np.uint64).tolist() == w0.view(np.uint64).tolist()  # bit for bit
    assert meta["lambda"].hex() == float(lam).hex()
    assert meta == {"n_features": n, "blocks": len(kappas), "lambda": lam,
                    "kappa": kappas, "loss": loss.value}


def test_load_model_rejects_corrupt_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("not_a_header 5\n")
    with pytest.raises(ParseError):
        cli.load_model(str(path))


GOOD_MODEL = ["n_features 2", "blocks 1", "lambda 0.5", "kappa 1", "loss logistic", "1", "-2"]


@pytest.mark.parametrize("line,text,message", [
    (2, "blocks 5", "line 2: blocks 5 outside [1, n_features = 2]"),
    (2, "blocks 0", "line 2: blocks 0 outside"),
    (4, "kappa 1 1", "line 4: 2 kappa values for 1 blocks"),
    (4, "kappa 7", "line 4: kappa values must be 1 or 2"),
    (5, "loss nonsense", "line 5: bad header value 'nonsense'"),
    (3, "lambda nan", "line 3: lambda must be finite and >= 0"),
    (3, "lambda inf", "line 3: lambda must be finite and >= 0"),
    (3, "lambda -0.5", "line 3: lambda must be finite and >= 0"),
    (7, "inf", "line 7: non-finite weight 'inf'"),
    (6, "nan", "line 6: non-finite weight 'nan'"),
    (6, "x", "line 6: bad weight 'x'"),
])
def test_load_model_rejects_bad_header_values_and_weights(tmp_path, line, text, message):
    lines = list(GOOD_MODEL)
    lines[line - 1] = text
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        cli.load_model(str(path))
    assert message in str(exc.value)
    assert exc.value.line_number == line

