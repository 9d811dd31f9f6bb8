"""Harness: file IO, synthetic data, clustering score, experiment drivers, CLI."""

import json
import math

import numpy as np
import pytest

from bregopt.cli import main as cli_main
from bregopt.harness import (
    ClusteringConfig,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    MatrixParseError,
    ProblemConfig,
    SyntheticSpec,
    aggregate_traces,
    basis_images,
    generate_synthetic,
    init_point,
    kmeans_accuracy,
    load_matrix,
    run_audit,
    run_compare,
    run_experiment,
    run_gen,
    save_matrix,
    write_pgm,
)
from bregopt.numeric import make_rng
from bregopt.solver import SolverConfig


# -- matrix IO --------------------------------------------------------------


@pytest.mark.parametrize("fmt,suffix", [("csv", ".csv"), ("mm", ".mtx")])
def test_matrix_roundtrip_is_exact(tmp_path, fmt, suffix):
    rng = make_rng(70)
    a = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    path = tmp_path / f"m{suffix}"
    save_matrix(path, a, fmt)
    back = load_matrix(path)
    # 17 significant digits round-trip float64 exactly.
    assert np.array_equal(back, a)


def test_matrix_format_inference(tmp_path):
    a = np.ones((2, 2))
    save_matrix(tmp_path / "x.csv", a)
    save_matrix(tmp_path / "x.mm", a)
    assert np.array_equal(load_matrix(tmp_path / "x.csv"), a)
    assert np.array_equal(load_matrix(tmp_path / "x.mm"), a)
    with pytest.raises(ConfigError, match="infer"):
        load_matrix(tmp_path / "x.dat")


def test_csv_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixParseError, match=r"bad\.csv:2"):
        load_matrix(path)
    path.write_text("1,2\n3\n")
    with pytest.raises(MatrixParseError, match="expected 2 columns"):
        load_matrix(path)
    path.write_text("")
    with pytest.raises(MatrixParseError, match="empty"):
        load_matrix(path)


def test_mm_header_and_shape_errors(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a header\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(MatrixParseError, match=r"bad\.mtx:1"):
        load_matrix(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n")
    with pytest.raises(MatrixParseError, match="array"):
        load_matrix(path)
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(MatrixParseError, match="expected 4 entries, found 3"):
        load_matrix(path)
    path.write_text("%%MatrixMarket matrix array real general\n2 x\n")
    with pytest.raises(MatrixParseError, match=r"bad\.mtx:2"):
        load_matrix(path)


def test_mm_column_major_order(tmp_path):
    path = tmp_path / "cm.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment line\n"
        "2 2\n1\n2\n3\n4\n"
    )
    a = load_matrix(path)
    assert np.array_equal(a, [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_mm_non_finite_entry_is_a_parse_error(tmp_path, capsys, value):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n2 2\n1\n{value}\n3\n4\n")
    with pytest.raises(MatrixParseError, match=r"bad\.mtx:4: .*non-finite"):
        load_matrix(path)
    cfg_path = tmp_path / "cfg.json"
    problem = {"kind": "gnmf", "rank": 1, "data": {"path": str(path)}}
    cfg_path.write_text(json.dumps({"problem": problem}))
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "bad.mtx:4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_csv_non_finite_entry_is_a_parse_error(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n3,{value}\n")
    with pytest.raises(MatrixParseError) as info:
        load_matrix(path)
    assert info.value.line == 2
    assert str(info.value) == f"{path}:2: non-finite entry '{value}'"


def test_pgm_writer(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[-6:] == bytes(range(6))
    with pytest.raises(ValueError):
        write_pgm(path, img.astype(np.float64))


def test_basis_images_normalization():
    u = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0], [1.0, 5.0]])
    images = basis_images(u, (2, 2))
    assert len(images) == 2
    assert images[0].dtype == np.uint8
    assert images[0].min() == 0 and images[0].max() == 255
    assert np.array_equal(images[1], np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="shape"):
        basis_images(u, (3, 2))


# -- synthetic data ---------------------------------------------------------


def test_generate_synthetic_structure():
    spec = SyntheticSpec(m=20, d=15, r_true=4, cluster_count=3, noise_sigma=0.0)
    m_data, labels, ustar, vstar = generate_synthetic(
        spec, make_rng(71), return_factors=True
    )
    assert m_data.shape == (20, 15) and labels.shape == (20,)
    assert sorted(set(labels)) == [0, 1, 2]
    # Contiguous nearly equal blocks.
    assert np.all(np.diff(labels) >= 0)
    assert np.bincount(labels).min() >= 20 // 3
    # The dominant component of each row is its label's component.
    assert np.array_equal(ustar.argmax(axis=1), labels)
    assert ustar.min() >= 0.0
    # Noiseless data has exact rank r_true.
    assert np.linalg.matrix_rank(m_data, tol=1e-10) == 4
    assert np.allclose(m_data, ustar @ vstar)


def test_generate_synthetic_noise_and_determinism():
    spec = SyntheticSpec(m=10, d=8, r_true=2, cluster_count=2, noise_sigma=0.1)
    a1, l1 = generate_synthetic(spec, make_rng(72))
    a2, l2 = generate_synthetic(spec, make_rng(72))
    assert np.array_equal(a1, a2) and np.array_equal(l1, l2)
    clean, _ = generate_synthetic(
        SyntheticSpec(10, 8, 2, 2, 0.0), make_rng(72)
    )
    assert not np.array_equal(a1, clean)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(m=5, d=5, r_true=6)
    with pytest.raises(ConfigError):
        SyntheticSpec(m=5, d=5, r_true=2, cluster_count=3)
    with pytest.raises(ConfigError):
        SyntheticSpec(m=5, d=5, r_true=2, noise_sigma=-0.1)


def test_init_point_range_and_shape():
    x = init_point(6, 2, 9, make_rng(73))
    assert x.shape == (6, 2, 9)
    assert x.u.min() >= 0.0 and x.u.max() <= 0.1
    assert x.v.min() >= 0.0 and x.v.max() <= 0.1


# -- kmeans accuracy --------------------------------------------------------


def test_kmeans_accuracy_separated_clusters():
    pts = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    acc = kmeans_accuracy(pts, labels, 3, restarts=5, rng=make_rng(74))
    assert acc == 1.0
    # Label permutation must not matter: the matching absorbs it.
    acc = kmeans_accuracy(pts, labels[::-1].copy(), 3, restarts=5, rng=make_rng(74))
    assert acc == 1.0


def test_kmeans_accuracy_on_true_basis_rows():
    spec = SyntheticSpec(m=30, d=20, r_true=3, cluster_count=3)
    _, labels, ustar, _ = generate_synthetic(
        spec, make_rng(75), return_factors=True
    )
    acc = kmeans_accuracy(ustar, labels, 3, restarts=10, rng=make_rng(76))
    assert acc == 1.0


def test_kmeans_accuracy_is_bounded_and_validates():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([0, 1, 0, 1])
    acc = kmeans_accuracy(pts, labels, 2, restarts=3, rng=make_rng(77))
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError):
        kmeans_accuracy(pts, labels[:2], 2)
    with pytest.raises(ValueError):
        kmeans_accuracy(pts, labels, 0)
    with pytest.raises(ValueError):
        kmeans_accuracy(pts, labels, 2, restarts=0)


# -- configuration ----------------------------------------------------------


def base_config_dict(**extra):
    d = {
        "problem": {
            "kind": "gnmf",
            "rank": 2,
            "data": {"synthetic": {"m": 12, "d": 10, "r_true": 2}},
        },
        "solver": {"max_epochs": 3, "batch_size": 2},
        "trials": 2,
        "seed": 5,
    }
    d.update(extra)
    return d


def test_experiment_config_from_dict_roundtrip():
    cfg = ExperimentConfig.from_dict(base_config_dict())
    assert cfg.problem.kind == "gnmf"
    assert cfg.problem.data.synthetic.m == 12
    assert cfg.solver.max_epochs == 3
    assert cfg.trials == 2


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.from_dict(base_config_dict(typo=1))
    bad = base_config_dict()
    bad["problem"]["data"]["synthetic"]["shape"] = 3
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.from_dict(bad)
    bad = base_config_dict()
    bad["solver"]["stepsize"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.from_dict(bad)


def test_experiment_config_requires_problem_and_valid_solver():
    with pytest.raises(ConfigError, match="problem"):
        ExperimentConfig.from_dict({"trials": 1})
    bad = base_config_dict()
    bad["solver"]["epsilon"] = 2.0
    with pytest.raises(ConfigError, match="solver"):
        ExperimentConfig.from_dict(bad)


def test_data_config_needs_exactly_one_source():
    with pytest.raises(ConfigError):
        DataConfig()
    with pytest.raises(ConfigError):
        DataConfig(path="x.csv", synthetic=SyntheticSpec(2, 2, 1))


def test_clustering_config_needs_k():
    with pytest.raises(ConfigError):
        ClusteringConfig.from_dict({"restarts": 3})


# -- experiment drivers -----------------------------------------------------


@pytest.fixture
def experiment(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path / "out")
    d["clustering"] = {"k": 2, "restarts": 3}
    return ExperimentConfig.from_dict(d)


def test_run_experiment_outputs(experiment):
    summary, paths = run_experiment(experiment)
    assert summary["status"] == "ok"
    assert summary["trials"] == 2
    assert summary["failed_trials"] == 0
    assert len(summary["init_hashes"]) == 2
    assert len(set(summary["init_hashes"])) == 2  # distinct per-trial starts
    assert "accuracy_mean" in summary
    names = {p.name for p in paths}
    assert names == {"trace_experiment.csv", "summary_experiment.json"}
    trace = (paths[0]).read_text().splitlines()
    assert len(trace) == 1 + 3 + 1  # header + epochs 0..3
    assert trace[0].startswith("epoch,objective_mean,objective_std")


def test_run_experiment_trace_is_deterministic(experiment):
    _, paths1 = run_experiment(experiment)
    first = paths1[0].read_bytes()
    _, paths2 = run_experiment(experiment)
    assert paths2[0].read_bytes() == first


def test_run_experiment_per_trial_and_pgm(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["emit"] = ["trace_csv", "summary_json", "per_trial_csv", "basis_pgm"]
    d["basis_shape"] = [4, 3]
    cfg = ExperimentConfig.from_dict(d)
    summary, paths = run_experiment(cfg)
    names = {p.name for p in paths}
    assert "trial_experiment_000.csv" in names
    assert "trial_experiment_001.csv" in names
    assert "basis_experiment_00.pgm" in names
    pgm = next(p for p in paths if p.suffix == ".pgm")
    assert pgm.read_bytes().startswith(b"P5\n3 4\n255\n")


def test_run_experiment_pgm_requires_shape(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["emit"] = ["basis_pgm"]
    with pytest.raises(ConfigError, match="basis_shape"):
        run_experiment(ExperimentConfig.from_dict(d))


def test_aggregate_traces_pads_short_trials(experiment):
    from bregopt.harness import _run_trials, build_experiment_problem, load_experiment_data

    m_data, labels = load_experiment_data(experiment)
    problem = build_experiment_problem(experiment, m_data)
    # Force heavy early stopping with a coarse tolerance.
    solver_cfg = SolverConfig(
        algorithm="bpg", max_epochs=50, stop_tol=1e-2, stop_window=1
    )
    outcomes = _run_trials(experiment, problem, solver_cfg, labels)
    rows, padded = aggregate_traces(outcomes, 50)
    assert len(rows) == 51
    assert padded == len(outcomes)  # every trial stopped well before 50
    assert [r["epoch"] for r in rows] == list(range(51))
    last_real = max(len(o.result.trace) for o in outcomes) - 1
    assert rows[50]["objective_mean"] == rows[last_real]["objective_mean"]


def test_run_compare_shares_initial_points(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["compare"] = [
        {"algorithm": "bpg"},
        {"algorithm": "bpsge", "estimator": "saga"},
    ]
    summary, paths = run_compare(ExperimentConfig.from_dict(d))
    assert set(summary["combos"]) == {"bpg", "bpsge_saga"}
    for combo in summary["combos"].values():
        assert combo["init_hashes"] == summary["shared_init_hashes"]
    names = {p.name for p in paths}
    assert "trace_experiment_bpg.csv" in names
    assert "trace_experiment_bpsge_saga.csv" in names
    assert "compare_experiment.json" in names


def test_run_compare_default_grid_has_eight_variants(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["trials"] = 1
    d["solver"]["max_epochs"] = 1
    summary, _ = run_compare(ExperimentConfig.from_dict(d))
    assert set(summary["combos"]) == {
        "bpg",
        "bpge",
        "bpsg_sgd",
        "bpsg_saga",
        "bpsg_sarah",
        "bpsge_sgd",
        "bpsge_saga",
        "bpsge_sarah",
    }


def test_run_audit_report(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["solver"]["max_epochs"] = 5
    summary, paths = run_audit(ExperimentConfig.from_dict(d))
    assert summary["status"] == "ok"
    assert summary["exact_hypotheses"] is True
    assert summary["lyapunov"]["checked"] > 0
    assert summary["rate"]["psi1_mean"] > 0
    assert "decay" in summary
    assert summary["decay"]["tau"] == pytest.approx(2 / (2 * 10))
    report = json.loads(paths[0].read_text())
    assert report["trials"] == 2


def test_run_gen_writes_instance(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    info, paths = run_gen(ExperimentConfig.from_dict(d))
    m_data = load_matrix(info["matrix"])
    assert m_data.shape == (12, 10)
    labels = np.loadtxt(info["labels"], dtype=np.int64)
    assert labels.shape == (12,)
    meta = json.loads((tmp_path / "experiment_meta.json").read_text())
    assert meta["synthetic"]["m"] == 12
    # Regenerating from the same seed reproduces the file exactly.
    again, _ = run_gen(ExperimentConfig.from_dict(d))
    assert np.array_equal(load_matrix(again["matrix"]), m_data)


def test_run_gen_needs_synthetic_block(tmp_path):
    d = base_config_dict()
    d["problem"]["data"] = {"path": str(tmp_path / "missing.csv")}
    d["out_dir"] = str(tmp_path)
    with pytest.raises(ConfigError, match="synthetic"):
        run_gen(ExperimentConfig.from_dict(d))


def test_experiment_with_file_data(tmp_path):
    rng = make_rng(80)
    m_data = rng.uniform(0.1, 1.0, (6, 8))
    path = tmp_path / "data.csv"
    save_matrix(path, m_data)
    d = {
        "problem": {"kind": "gnmf", "rank": 2, "data": {"path": str(path)}},
        "solver": {"max_epochs": 2, "batch_size": 2},
        "out_dir": str(tmp_path / "out"),
    }
    summary, _ = run_experiment(ExperimentConfig.from_dict(d))
    assert summary["status"] == "ok"
    d["problem"]["data"]["path"] = str(tmp_path / "nope.csv")
    with pytest.raises(ConfigError, match="not found"):
        run_experiment(ExperimentConfig.from_dict(d))


# -- CLI --------------------------------------------------------------------


def cli_args(tmp_path, verb, *extra):
    return [
        verb,
        "--set",
        'problem={"kind":"gnmf","rank":2,"data":{"synthetic":{"m":10,"d":8,"r_true":2}}}',
        "--set",
        "solver.max_epochs=2",
        "--set",
        "solver.batch_size=2",
        "--out",
        str(tmp_path),
        "--quiet",
        *extra,
    ]


def test_cli_run_ok(tmp_path, capsys):
    assert cli_main(cli_args(tmp_path, "run")) == 0
    assert (tmp_path / "summary_experiment.json").exists()


def test_cli_config_file_and_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config_dict()))
    code = cli_main(
        ["run", "--config", str(cfg_path), "--seed", "9", "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary_experiment.json").read_text())
    assert summary["seed"] == 9


def test_cli_exit_code_1_on_bad_config(tmp_path, capsys):
    # Unknown solver key.
    code = cli_main(cli_args(tmp_path, "run", "--set", "solver.boost=2"))
    assert code == 1
    # No problem at all.
    assert cli_main(["run", "--quiet"]) == 1
    # Malformed JSON config file.
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli_main(["run", "--config", str(bad), "--quiet"]) == 1
    # Bad --set syntax.
    assert cli_main(cli_args(tmp_path, "run", "--set", "oops")) == 1
    capsys.readouterr()


def test_cli_exit_code_1_on_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_exit_code_2_on_numerical_failure(tmp_path, capsys):
    # lambda2 = 0.5 with lambda1 = 0.1 is rejected by the problem class at
    # build time, surfacing as a numerical-domain error, exit 2.
    code = cli_main(
        cli_args(
            tmp_path,
            "run",
            "--set",
            "problem.kind=wcmf",
            "--set",
            "problem.lambda1=0.1",
            "--set",
            "problem.lambda2=0.5",
        )
    )
    assert code == 2
    capsys.readouterr()


def test_cli_compare_and_audit_and_gen(tmp_path, capsys):
    assert cli_main(cli_args(tmp_path, "compare", "--set", 'compare=[{"algorithm":"bpg"}]')) == 0
    assert (tmp_path / "compare_experiment.json").exists()
    assert cli_main(cli_args(tmp_path, "audit")) == 0
    assert (tmp_path / "audit_experiment.json").exists()
    assert cli_main(cli_args(tmp_path, "gen", "--format", "mm")) == 0
    assert (tmp_path / "experiment_M.mtx").exists()
    capsys.readouterr()


def test_cli_audit_clamps_batch_to_columns(tmp_path, capsys):
    # solver.batch_size 100 on 40 columns runs with b = 40, and the SAGA
    # decay check must use the same b: tau = b / (2 n) = 0.5.
    code = cli_main(
        cli_args(
            tmp_path,
            "audit",
            "--set",
            'problem={"kind":"gnmf","rank":2,"data":{"synthetic":{"m":10,"d":40,"r_true":2}}}',
            "--set",
            "solver.batch_size=100",
            "--set",
            "solver.max_epochs=4",
        )
    )
    assert code == 0
    report = json.loads((tmp_path / "audit_experiment.json").read_text())
    assert report["decay"]["tau"] == 0.5
    capsys.readouterr()


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftest checks passed" in out


def test_cli_set_value_parsing(tmp_path):
    code = cli_main(
        cli_args(tmp_path, "run", "--set", "name=demo", "--set", "trials=2")
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary_demo.json").read_text())
    assert summary["name"] == "demo"  # bare string fallback
    assert summary["trials"] == 2  # JSON integer
