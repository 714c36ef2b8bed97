"""End-to-end tests of the command line driven in process through main()."""

import numpy as np
import pytest

import proxsplit as px
from proxsplit import cli
from proxsplit.errors import ParseError


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
    assert "error: trace_stride must be >= 1" in capsys.readouterr().err


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


def test_train_one_vs_all(multiclass_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROXSPLIT_THREADS", "2")
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


def test_bench_multiclass_needs_positive_class(multiclass_file, capsys):
    assert cli.main(["bench", "--data", multiclass_file]) == 2
    assert "positive-class" in capsys.readouterr().err.replace("_", "-")


# ------------------------------------------------------------ model files

def test_model_round_trip(tmp_path):
    prob_w = np.array([0.0, -1.5, 2.5e-17, 3.0])
    import scipy.sparse as sp
    tset = px.TrainingSet(features=sp.csr_matrix(np.ones((2, 4))),
                          labels=np.array([1.0, -1.0]))
    prob = px.Problem(data=tset, partition=px.BlockPartition.contiguous(4, 2),
                      reg=px.RegularizerSpec(lam=0.75, kappa=2),
                      loss=px.ScalarLoss.HUBER)
    path = tmp_path / "model.txt"
    cli.save_model(str(path), prob_w, prob)
    w, meta = cli.load_model(str(path))
    assert np.array_equal(w, prob_w)  # 17 significant digits survive re-parse
    assert meta["n_features"] == 4
    assert meta["blocks"] == 2
    assert meta["lambda"] == 0.75
    assert meta["kappa"] == (2, 2)
    assert meta["loss"] == "huber"


def test_load_model_rejects_corrupt_header(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("not_a_header 5\n")
    with pytest.raises(ParseError):
        cli.load_model(str(path))
