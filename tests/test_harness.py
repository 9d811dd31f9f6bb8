"""Harness: file IO, synthetic data, clustering score, experiment drivers, CLI."""

import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bregopt import harness
from bregopt.cli import build_parser
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
    _write_json,
)
from bregopt.estimators import (
    check_geometric_decay,
    effective_batch_size,
    effective_restart_prob,
    estimate_sample_lipschitz,
)
from bregopt.numeric import make_rng
from bregopt.solver import SolverConfig, rate_check


# -- matrix IO --------------------------------------------------------------


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("suffix", [".csv", ".mtx"])
def test_matrix_roundtrip_is_exact(tmp_path, suffix, bom):
    rng = make_rng(70)
    a = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    path = tmp_path / f"m{suffix}"
    save_matrix(path, a)
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
    path.write_bytes(bom + path.read_bytes())
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


def test_importing_bregopt_leaves_scipy_optimize_unloaded():
    # scipy.optimize is a third of a bare import's time, and only
    # kmeans_accuracy reads it, on its first call.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import bregopt\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "pts = np.array([[0.0], [0.1], [5.0], [5.1]])\n"
        "acc = bregopt.kmeans_accuracy(pts, [1, 1, 0, 0], 2, rng=np.random.default_rng(3))\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "print(acc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1.0"


def test_kmeans_accuracy_sizes_nothing_by_a_class_id():
    # Ids far apart score exactly as their dense ranks; the bincount and
    # assignment are sized by the classes present, not by the largest id.
    pts = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])
    dense = np.array([0, 2, 2, 1, 1, 0])
    sparse = np.array([0, 2**40, 2**40, 7, 7, 0])
    accs = [
        kmeans_accuracy(pts, labels, 3, restarts=5, rng=make_rng(74))
        for labels in (dense, sparse)
    ]
    assert accs[0] == accs[1] < 1.0


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


# Per-restart k-means as the harness ran it before the restarts were batched:
# the oracle the batched Lloyd loop must match bit for bit.  ``mean`` is the
# center rule; the default is numpy's axis-0 mean of the cluster's rows.
def _oracle_lloyd(x, centers, max_iter=300, mean=lambda rows: rows.mean(axis=0)):
    n, k = x.shape[0], centers.shape[0]
    centers = centers.copy()
    assign = np.full(n, -1)
    for _ in range(max_iter):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dist.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = mean(x[mask])
            else:
                far = dist[np.arange(n), assign].argmax()
                centers[j] = x[far]
    inertia = float(dist[np.arange(n), assign].sum())
    return assign, inertia


def _kmeans_once(x, k, rng, max_iter=300, **kw):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            probs = d2 / total
            pick = rng.choice(n, p=probs)
        else:
            pick = rng.integers(n)
        centers[j] = x[pick]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return _oracle_lloyd(x, centers, max_iter, **kw)


def _oracle_accuracy(runs, labels, k):
    best_assign, best_inertia = None, math.inf
    for assign, inertia in runs:
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    confusion = np.zeros((k, int(labels.max()) + 1))
    np.add.at(confusion, (best_assign, labels), 1.0)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / labels.size)


def _sequential_mean(rows):
    # Rows summed one by one in row order, then divided by their count.
    return functools.reduce(np.add, rows) / len(rows)


def _random_kmeans_case(g, rank):
    n = int(g.integers(1, 30))
    if g.random() < 0.5:
        x = g.standard_normal((n, rank))
    else:
        x = np.round(g.random((n, rank)) * 3.0) / 3.0  # many exact ties
    if n > 2 and g.random() < 0.3:
        x[g.integers(n, size=n // 2)] = x[0]  # duplicate rows
    choice = g.random()
    if choice < 0.15:
        k = 1
    elif choice < 0.3:
        k = n
    else:
        k = int(g.integers(1, min(n, 7) + 1))
    max_iter = 300 if g.random() < 0.8 else int(g.integers(1, 4))
    return x, k, int(g.integers(1, 7)), max_iter


def _check_batched_against_oracle(x, k, restarts, max_iter, seed, **kw):
    rng = make_rng(seed)
    want = [_kmeans_once(x, k, rng, max_iter, **kw) for _ in range(restarts)]
    rng = make_rng(seed)
    centers = np.stack([harness._kmeans_pp(x, k, rng) for _ in range(restarts)])
    assign, inertia = harness._lloyd(x, centers, max_iter)
    for i, (want_assign, want_inertia) in enumerate(want):
        assert np.array_equal(assign[i], want_assign)
        assert float(inertia[i]) == want_inertia
    return want


def test_batched_kmeans_equals_per_restart_oracle(monkeypatch):
    g = make_rng(90)
    for case in range(240):
        rank = 2 + case % 8  # 2..9: both sides of numpy's 8-wide unrolled sum
        x, k, restarts, max_iter = _random_kmeans_case(g, rank)
        seed = int(g.integers(1 << 30))
        want = _check_batched_against_oracle(x, k, restarts, max_iter, seed)
        if max_iter == 300:
            labels = g.integers(0, 3, size=x.shape[0])
            acc = kmeans_accuracy(x, labels, k, restarts=restarts, rng=make_rng(seed))
            assert acc == _oracle_accuracy(want, labels, k)
    # Distances formed one restart at a time give the same bits.
    x = g.standard_normal((25, 4))
    centers = np.stack([harness._kmeans_pp(x, 4, g) for _ in range(5)])
    whole = harness._lloyd(x, centers)
    monkeypatch.setattr(harness, "_DIST_CHUNK_BYTES", 1)
    chunked = harness._lloyd(x, centers)
    assert np.array_equal(whole[0], chunked[0])
    assert np.array_equal(whole[1], chunked[1])


def test_batched_kmeans_edge_cases():
    g = make_rng(91)
    x = g.standard_normal((12, 3))
    _check_batched_against_oracle(x, 1, 4, 300, seed=1)  # k = 1
    _check_batched_against_oracle(x, 12, 4, 300, seed=2)  # k = number of rows
    _check_batched_against_oracle(x, 4, 5, 1, seed=3)  # stops at max_iter
    _check_batched_against_oracle(x, 4, 5, 2, seed=4)
    ties = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 3, axis=0)
    _check_batched_against_oracle(ties, 4, 6, 300, seed=5)
    # Which restarts stop first differs between start sets.
    centers = np.stack([ties[[0, 3]], ties[[0, 8]], ties[[0, 1]]])
    assign, inertia = harness._lloyd(ties, centers)
    for i in range(3):
        want_assign, want_inertia = _oracle_lloyd(ties, centers[i])
        assert np.array_equal(assign[i], want_assign)
        assert float(inertia[i]) == want_inertia
    # Two restarts tie at the lowest inertia with different accuracies; the
    # first of them wins.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    by_row = np.array([0, 0, 1, 1])
    rng = make_rng(9)
    runs = [_kmeans_once(square, 2, rng) for _ in range(4)]
    best = min(inertia for _, inertia in runs)
    tied = [_oracle_accuracy([run], by_row, 2) for run in runs if run[1] == best]
    assert tied == [1.0, 0.5]
    assert kmeans_accuracy(square, by_row, 2, restarts=4, rng=make_rng(9)) == 1.0


def test_batched_kmeans_reseeds_empty_clusters_without_warnings():
    x = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.2], [3.0, 3.0], [3.1, 3.0]])
    # Set 0: its second and third centers are far from every row, so both
    # clusters empty on the first iteration.  Set 1: identical start centers
    # leave every cluster but the first empty.
    centers = np.array(
        [
            [[0.0, 0.0], [50.0, 50.0], [60.0, 60.0]],
            [[3.0, 3.0], [3.0, 3.0], [3.0, 3.0]],
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assign, inertia = harness._lloyd(x, centers)
        dup = np.zeros((6, 2))  # every k-means++ pick duplicates the first
        _check_batched_against_oracle(dup, 3, 3, 300, seed=6)
    for i in range(2):
        want_assign, want_inertia = _oracle_lloyd(x, centers[i])
        assert np.array_equal(assign[i], want_assign)
        assert float(inertia[i]) == want_inertia


def test_batched_kmeans_rank_one_sums_in_row_order():
    # For r = 1 numpy's x[mask].mean(axis=0) sums a contiguous column
    # pairwise; the batched centers are the row-order sums, as for r >= 2.
    g = make_rng(92)
    for _ in range(200):
        x, k, restarts, max_iter = _random_kmeans_case(g, 1)
        seed = int(g.integers(1 << 30))
        _check_batched_against_oracle(
            x, k, restarts, max_iter, seed, mean=_sequential_mean
        )


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


def _clustering(block: dict) -> ClusteringConfig:
    return ExperimentConfig.from_dict(base_config_dict(clustering=block)).clustering


def test_clustering_config_needs_k():
    with pytest.raises(ConfigError, match="clustering needs 'k'"):
        _clustering({"restarts": 3})


def test_clustering_config_rejects_bad_k_and_restarts():
    with pytest.raises(ConfigError, match="clustering.k must be an integer >= 1"):
        _clustering({"k": 0})
    for d, message in (
        ({"k": 2.5}, "clustering.k must be an integer, got 2.5"),
        ({"k": "3"}, "clustering.k must be an integer, got '3'"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            _clustering(d)
    with pytest.raises(ConfigError, match="clustering.restarts must be an integer"):
        _clustering({"k": 2, "restarts": 0})
    with pytest.raises(ConfigError, match="clustering.restarts must be an integer"):
        ClusteringConfig(k=2, restarts=-1)
    assert ClusteringConfig(k=np.int64(3)).k == 3


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before the config was checked against the data")


@pytest.mark.parametrize("verb", ["run", "compare", "audit"])
@pytest.mark.parametrize(
    "clustering, message",
    [
        ('{"k":2,"restarts":0}', "clustering.restarts must be an integer >= 1"),
        ('{"k":50}', "clustering.k = 50 exceeds the 12 rows of M"),
        (
            '{"k":2,"labels_path":"/nonexistent/labels.csv"}',
            "clustering.labels_path must be omitted with synthetic data",
        ),
    ],
)
def test_cli_rejects_clustering_block_before_solving(
    tmp_path, capsys, monkeypatch, verb, clustering, message
):
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    code = cli_main(
        [
            verb,
            "--set",
            'problem={"kind":"gnmf","rank":2,"data":{"synthetic":{"m":12,"d":8,"r_true":2}}}',
            "--set",
            f"clustering={clustering}",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 1
    assert f"bregopt: config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "audit"])
def test_cli_rejects_a_compare_block_outside_compare(tmp_path, capsys, monkeypatch, verb):
    # Only bregopt compare reads the grid; run and audit would solve the
    # solver block and leave it unread.
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    problem = {
        "kind": "wcmf",
        "rank": 2,
        "lambda1": 0.05,
        "lambda2": 0.02,
        "data": {"synthetic": {"m": 10, "d": 8, "r_true": 2}},
    }
    argv = [verb, "--set", f"problem={json.dumps(problem)}"]
    argv += ["--set", 'compare=[{"algorithm":"bpg"}]', "--out", str(out), "--quiet"]
    assert cli_main(argv) == 1
    message = (
        "bregopt: config error: the compare block is read only by "
        f"'bregopt compare', not by 'bregopt {verb}'"
    )
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize("shape", [(3, 3), (-3, -4)])
def test_cli_rejects_mismatched_basis_shape_before_solving(
    tmp_path, capsys, monkeypatch, verb, shape
):
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    code = cli_main(
        [
            verb,
            "--set",
            'problem={"kind":"gnmf","rank":2,"data":{"synthetic":{"m":12,"d":8,"r_true":2}}}',
            "--set",
            'emit=["trace_csv","basis_pgm"]',
            "--set",
            f"basis_shape=[{shape[0]},{shape[1]}]",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    h, w = shape
    assert f"bregopt: config error: basis_shape {h}x{w} is not a positive shape" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "labels, message",
    [
        (None, "labels file not found"),
        ("0\n1\n0\n1\n0\n", "got 5 labels for 6 rows of M"),
        ("0\n1\n0\n-1\n0\n1\n", "labels must be nonnegative integers"),
        ("0\n1.5\n0\n1\n0\n1\n", r"labels\.csv:2: not an integer: '1\.5'"),
        ("omit", "clustering.labels_path is required with data.path"),
    ],
)
def test_run_rejects_bad_labels_file_before_solving(
    tmp_path, monkeypatch, labels, message
):
    data = tmp_path / "m.csv"
    save_matrix(data, make_rng(94).random((6, 5)))
    labels_path = tmp_path / "labels.csv"
    clustering = {"k": 2, "labels_path": str(labels_path)}
    if labels == "omit":
        del clustering["labels_path"]
    elif labels is not None:
        labels_path.write_text(labels)
    monkeypatch.setattr(harness, "run", _no_solve)
    d = {
        "problem": {"kind": "gnmf", "rank": 2, "data": {"path": str(data)}},
        "clustering": clustering,
        "out_dir": str(tmp_path / "out"),
    }
    with pytest.raises(ConfigError, match=message):
        run_experiment(ExperimentConfig.from_dict(d))
    assert not (tmp_path / "out").exists()


def _labels_run_argv(tmp_path, labels_bytes: bytes):
    """``bregopt run`` argv on a 6-row CSV matrix with the given labels file."""
    data = tmp_path / "m.csv"
    save_matrix(data, make_rng(94).random((6, 5)))
    labels = tmp_path / "labels.csv"
    labels.write_bytes(labels_bytes)
    problem = {"kind": "gnmf", "rank": 2, "data": {"path": str(data)}}
    clustering = {"k": 2, "restarts": 2, "labels_path": str(labels)}
    return [
        "run",
        "--set",
        f"problem={json.dumps(problem)}",
        "--set",
        f"clustering={json.dumps(clustering)}",
        "--set",
        "solver.max_epochs=2",
        "--out",
        str(tmp_path / "out"),
        "--quiet",
    ], labels


def test_cli_reads_a_labels_file_with_a_byte_order_mark(tmp_path, capsys):
    # A spreadsheet's "CSV UTF-8" export; blank lines are skipped too.
    argv, _ = _labels_run_argv(tmp_path, b"\xef\xbb\xbf0\n0\n0\n\n1\n1\n1\n")
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "summary_experiment.json").read_text())
    assert "accuracy_mean" in summary


@pytest.mark.parametrize(
    "labels_bytes, line",
    [
        (b"", 1),
        (b"0\n0\n0,1\n1\n1\n1\n", 3),
        (f"0\n0\n0\n1\n{2**70}\n1\n".encode(), 5),
    ],
    ids=["empty", "two-entries", "beyond-int64"],
)
def test_cli_rejects_a_bad_labels_file_naming_its_line(
    tmp_path, capsys, labels_bytes, line
):
    argv, labels = _labels_run_argv(tmp_path, labels_bytes)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bregopt: config error: {labels}:{line}: ")
    assert err.count("\n") == 1  # one message and nothing else
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "mm"])
def test_run_on_gen_files_matches_the_synthetic_run(tmp_path, capsys, fmt):
    synthetic = {"m": 10, "d": 8, "r_true": 2, "cluster_count": 2}
    problem = {"kind": "gnmf", "rank": 2, "mu0": 0.1, "data": {"synthetic": synthetic}}
    common = [
        "--set",
        "solver.max_epochs=3",
        "--set",
        "solver.batch_size=2",
        "--seed",
        "7",
        "--quiet",
    ]

    def cli(verb, out, problem, clustering, *extra):
        argv = [verb, "--set", f"problem={json.dumps(problem)}", *common]
        argv += ["--set", f"clustering={json.dumps(clustering)}", "--out", str(out)]
        assert cli_main([*argv, *extra]) == 0

    clustering = {"k": 2, "restarts": 3}
    cli("gen", tmp_path / "gen", problem, clustering, "--format", fmt)
    cli("run", tmp_path / "synthetic", problem, clustering)
    ext = "csv" if fmt == "csv" else "mtx"
    problem["data"] = {"path": str(tmp_path / "gen" / f"experiment_M.{ext}")}
    clustering["labels_path"] = str(tmp_path / "gen" / "experiment_labels.csv")
    cli("run", tmp_path / "file", problem, clustering)
    capsys.readouterr()

    def outputs(out):
        summary = json.loads((out / "summary_experiment.json").read_text())
        del summary["wall_seconds"]
        return (out / "trace_experiment.csv").read_bytes(), summary

    trace, summary = outputs(tmp_path / "file")
    assert (trace, summary) == outputs(tmp_path / "synthetic")
    assert "accuracy_mean" in summary


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
    from bregopt.harness import _prepare, _run_trials

    _, _, problem, labels, starts, _ = _prepare(experiment)
    # Force heavy early stopping with a coarse tolerance.
    solver_cfg = SolverConfig(algorithm="bpg", max_epochs=50, stop_tol=1e-2)
    outcomes = _run_trials(experiment, problem, solver_cfg, labels, starts)
    rows, padded = aggregate_traces(outcomes, 50)
    assert len(rows) == 51
    assert padded == len(outcomes)  # every trial stopped well before 50
    assert [r["epoch"] for r in rows] == list(range(51))
    last_real = max(len(o.result.trace) for o in outcomes) - 1
    assert rows[50]["objective_mean"] == rows[last_real]["objective_mean"]


def _fake_outcome(g, n_rows):
    rows = [
        SimpleNamespace(
            epoch=e,
            objective=float(g.standard_normal()) * 10.0 ** int(g.integers(-3, 4)),
            bregman_step=float(g.random()),
            eta=float(g.random()),
            beta=float(g.integers(0, 3)) / 4.0,
        )
        for e in range(n_rows)
    ]
    return SimpleNamespace(result=SimpleNamespace(trace=rows))


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 33])
def test_aggregate_traces_matches_per_cell_reduction(trials):
    g = make_rng(93 + trials)
    max_epochs = 12
    # Every other trial stops early and is padded with its final row.
    lengths = [max_epochs + 1 if t % 2 else int(g.integers(1, max_epochs + 1))
               for t in range(trials)]
    outcomes = [_fake_outcome(g, n) for n in lengths]
    rows, padded = aggregate_traces(outcomes, max_epochs)
    assert padded == sum(n <= max_epochs for n in lengths)
    assert [r["epoch"] for r in rows] == list(range(max_epochs + 1))
    for e, row in enumerate(rows):
        for name in ("objective", "bregman_step", "eta", "beta"):
            vals = np.array(
                [getattr(o.result.trace[min(e, n - 1)], name)
                 for o, n in zip(outcomes, lengths)]
            )
            for stat, fn in (("mean", np.mean), ("std", np.std)):
                got = np.float64(row[f"{name}_{stat}"])
                assert type(row[f"{name}_{stat}"]) is float
                assert got.tobytes() == np.float64(fn(vals)).tobytes()


def test_write_json_matches_json_dump(tmp_path):
    payload = {
        "name": "x",
        "combos": {"bpg": {"final_objective_mean": math.nan, "accuracy": None,
                           "init_hashes": ["a", "b"], "trace": [1.5, -0.0, 1e-300]}},
        "status": "ok",
        "empty": [],
        "nested": [[1, 2], {"z": math.inf, "a": -math.inf}],
    }
    path = tmp_path / "out.json"
    _write_json(path, payload)
    want = tmp_path / "want.json"
    with open(want, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == want.read_bytes()


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


def test_unaudited_trace_and_trial_csvs_hold_no_nan(tmp_path):
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["emit"] = ["trace_csv", "per_trial_csv"]
    run_experiment(ExperimentConfig.from_dict(d))
    d["compare"] = [{"algorithm": "bpge"}, {"algorithm": "bpsge", "estimator": "sgd"}]
    run_compare(ExperimentConfig.from_dict(d))
    written = sorted(tmp_path.glob("trace_*.csv")) + sorted(tmp_path.glob("trial_*.csv"))
    assert len(written) == 3 * (1 + d["trials"])
    for path in written:
        assert "nan" not in path.read_text(), path.name


def test_run_compare_draws_each_trial_start_once(tmp_path, monkeypatch):
    draws = []

    def counted(cfg, problem, t):
        draws.append(t)
        return trial_init(cfg, problem, t)

    trial_init = harness._trial_init
    monkeypatch.setattr(harness, "_trial_init", counted)
    d = base_config_dict()
    d["out_dir"] = str(tmp_path)
    d["trials"] = 3
    d["compare"] = [{"algorithm": "bpg"}, {"algorithm": "bpge"},
                    {"algorithm": "bpsg", "estimator": "saga"}]
    summary, _ = run_compare(ExperimentConfig.from_dict(d))
    assert draws == [0, 1, 2]
    assert len(set(summary["shared_init_hashes"])) == 3


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


def audit_verdicts_loop(ok, problem, solver_cfg):
    """``run_audit``'s verdicts as it took them before it read each trial's
    audits into one array: per-record loops and nested lists."""
    report = {}
    tol = 1e-9
    checked = violations = 0
    for o in ok:
        psis = [a.lyapunov for a in o.result.audits]
        for prev, cur in zip(psis, psis[1:]):
            checked += 1
            if cur > prev + tol * (1.0 + abs(prev)):
                violations += 1
    report["lyapunov"] = {"checked": checked, "violations": violations, "relative_tol": tol}
    min_len = min(len(o.result.audits) for o in ok)
    if min_len > 0:
        d_mean = np.mean(
            [[a.bregman_step for a in o.result.audits[:min_len]] for o in ok], axis=0
        )
        psi1 = float(np.mean([o.result.psi1 for o in ok]))
        rep = rate_check(d_mean, psi1, solver_cfg.epsilon)
        report["rate"] = {
            "passed": rep.passed,
            "checked_upto": rep.checked_upto,
            "worst_ratio": rep.worst_ratio,
            "psi1_mean": psi1,
        }
        wit = np.mean(
            [[a.stationarity for a in o.result.audits[:min_len]] for o in ok], axis=0
        )
        report["stationarity"] = {
            "first": float(wit[0]),
            "last": float(wit[-1]),
            "min": float(wit.min()),
        }
    est_name = solver_cfg.resolved().estimator
    if est_name in ("saga", "sarah") and min_len >= 3:
        m1 = max(estimate_sample_lipschitz(problem, o.result.iterates) for o in ok)
        n = problem.n_samples
        b = effective_batch_size(solver_cfg.batch_size, n)
        if est_name == "saga":
            tau = b / (2.0 * n)
            v_gamma = (2.0 * b + 4.0 * n) * m1 * m1 / (b * b)
        else:
            tau = effective_restart_prob(None, n, b)
            v_gamma = 2.0 * m1 * m1
        records = [
            (
                np.array([a.gamma for a in o.result.audits]),
                np.array([a.step_sq for a in o.result.audits]),
            )
            for o in ok
        ]
        decay = check_geometric_decay(records, tau, v_gamma)
        report["decay"] = {
            "violation_fraction": decay.violation_fraction,
            "checked": decay.checked,
            "passed": decay.passed,
            "tau": tau,
            "v_gamma": v_gamma,
            "m1_estimate": m1,
        }
    return report


_ALL_VERDICTS = {"lyapunov", "rate", "stationarity", "decay"}


@pytest.mark.parametrize(
    "estimator, trials, edits, verdicts",
    [
        ("saga", 4, {1: 7, 2: "fail"}, _ALL_VERDICTS),
        ("sarah", 3, {1: 0}, {"lyapunov"}),
        ("saga", 10, {4: 1, 7: "fail"}, _ALL_VERDICTS - {"decay"}),
        ("sarah", 9, {0: 4, 5: "fail", 8: 6}, _ALL_VERDICTS),
    ],
    ids=["short-and-failed", "no-audits", "ten-one-step", "nine-short"],
)
def test_run_audit_verdicts_match_the_loops(
    tmp_path, monkeypatch, estimator, trials, edits, verdicts
):
    # Trials cut to n audits (and n + 1 iterates), failed, or left with none;
    # the 10- and 9-trial cases take across-trial means over more than 8.
    seen = {}
    run_trials = harness._run_trials

    def crafted(cfg, problem, solver_cfg, labels, starts):
        outcomes = run_trials(cfg, problem, solver_cfg, labels, starts)
        for t, edit in edits.items():
            res = outcomes[t].result
            if edit == "fail":
                res.failed = True
            else:
                res.audits, res.iterates = res.audits[:edit], res.iterates[: edit + 1]
        seen.update(ok=[o for o in outcomes if not o.result.failed], problem=problem)
        seen["solver_cfg"] = solver_cfg
        return outcomes

    monkeypatch.setattr(harness, "_run_trials", crafted)
    d = base_config_dict(trials=trials, out_dir=str(tmp_path))
    d["solver"]["estimator"] = estimator
    report, _ = run_audit(ExperimentConfig.from_dict(d))
    want = audit_verdicts_loop(seen["ok"], seen["problem"], seen["solver_cfg"])
    assert set(want) == verdicts == set(report) & _ALL_VERDICTS
    got = {key: report[key] for key in verdicts}
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert report["failed_trials"] == list(edits.values()).count("fail")


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
    # A negative lambda1 is rejected by the problem class at build time,
    # surfacing as a numerical-domain error, exit 2.
    code = cli_main(
        cli_args(
            tmp_path,
            "run",
            "--set",
            "problem.kind=wcmf",
            "--set",
            "problem.lambda1=-0.1",
        )
    )
    assert code == 2
    assert "lambda1 and lambda2 must be >= 0" in capsys.readouterr().err


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


def test_cli_has_no_selftest_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["selftest"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'selftest'" in err
    for verb in ("run", "compare", "audit", "gen"):
        assert repr(verb) in err


def test_readme_cli_block_lists_exactly_the_parser_verbs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.strip()]
    (subs,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert listed == list(subs.choices)


def _file_error_case(tmp_path, case):
    """(argv, path the error must name) for one unreadable-file case."""
    data = tmp_path / "m.csv"
    save_matrix(data, make_rng(3).uniform(0.1, 1.0, (10, 8)))
    missing, folder = tmp_path / "missing.csv", tmp_path / "folder.csv"
    out = tmp_path / "out"
    folder.mkdir()
    problem = {"kind": "gnmf", "rank": 2, "data": {"path": str(data)}}
    cfg, verb = {"problem": problem}, "run"
    if case == "laplacian-missing":
        problem.update(mu0=0.5, laplacian={"path": str(missing)})
        bad = missing
    elif case == "laplacian-directory":
        problem.update(mu0=0.5, laplacian={"path": str(folder)})
        bad = folder
    elif case == "data-directory":
        problem["data"] = {"path": str(folder)}
        bad = folder
    elif case == "labels-directory":
        cfg["clustering"] = {"k": 2, "labels_path": str(folder)}
        bad = folder
    elif case == "data-not-utf8":
        data.write_bytes(b"\xff\xfe0.5,0.25\n")
        bad = data
    else:  # out-is-file, gen-out-is-file
        out.write_text("")
        bad = out
        if case == "gen-out-is-file":
            verb = "gen"
            problem["data"] = {"synthetic": {"m": 10, "d": 8, "r_true": 2}}
    argv = [verb, "--out", str(out), "--quiet"]
    for key, value in cfg.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return argv, bad


@pytest.mark.parametrize(
    "case",
    [
        "laplacian-missing",
        "laplacian-directory",
        "data-directory",
        "labels-directory",
        "out-is-file",
        "gen-out-is-file",
        "data-not-utf8",
    ],
)
def test_cli_file_errors_exit_1_naming_the_path(tmp_path, capsys, case):
    argv, bad = _file_error_case(tmp_path, case)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("bregopt: config error:")
    assert str(bad) in err
    assert "Traceback" not in err
    if "out" not in case:  # failed before the output directory was made
        assert not (tmp_path / "out").exists()


def test_cli_set_value_parsing(tmp_path):
    code = cli_main(
        cli_args(tmp_path, "run", "--set", "name=demo", "--set", "trials=2")
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary_demo.json").read_text())
    assert summary["name"] == "demo"  # bare string fallback
    assert summary["trials"] == 2  # JSON integer


# -- config boundary --------------------------------------------------------


_SOLVER_KINDS = {
    "algorithm": "str",
    "estimator": "str",
    "batch_size": "int",
    "max_epochs": "int",
    "beta_mode": "str",
    "epsilon": "float",
    "strict_theory_stepsize": "bool",
    "stop_tol": "float",
    "audit_every": "int",
    "audit_per_iteration": "bool",
    "keep_iterates": "bool",
}

# The JSON kind of every config value by its path; "?" marks a nullable one.
# ``solver.seed`` is rejected whatever its value: each trial's seed comes from
# the top-level ``seed``.
_CONFIG_KINDS = {
    ("trials",): "int",
    ("seed",): "int",
    ("out_dir",): "str",
    ("emit",): "list",
    ("basis_shape",): "list?",
    ("compare",): "list?",
    ("name",): "str",
    ("problem",): "object",
    ("problem", "kind"): "str",
    ("problem", "rank"): "int",
    ("problem", "mu0"): "float",
    ("problem", "lambda1"): "float",
    ("problem", "lambda2"): "float",
    ("problem", "s1"): "int?",
    ("problem", "s2"): "int?",
    ("problem", "data"): "object",
    ("problem", "data", "path"): "str?",
    ("problem", "data", "synthetic"): "object?",
    ("problem", "data", "synthetic", "m"): "int",
    ("problem", "data", "synthetic", "d"): "int",
    ("problem", "data", "synthetic", "r_true"): "int",
    ("problem", "data", "synthetic", "cluster_count"): "int",
    ("problem", "data", "synthetic", "noise_sigma"): "float",
    ("problem", "laplacian"): "object",
    ("problem", "laplacian", "path"): "str?",
    ("problem", "laplacian", "neighbors"): "int",
    ("problem", "laplacian", "weighting"): "str",
    ("problem", "laplacian", "sigma"): "float?",
    ("clustering",): "object?",
    ("clustering", "k"): "int",
    ("clustering", "restarts"): "int",
    ("clustering", "labels_path"): "str?",
    ("solver",): "object",
    **{("solver", name): kind for name, kind in _SOLVER_KINDS.items()},
    **{("compare", 0, name): kind for name, kind in _SOLVER_KINDS.items()},
}

_text = st.text(max_size=3)
_WRONG = {
    "int": st.one_of(_text, st.booleans(), st.floats(), st.lists(st.integers(), max_size=2)),
    "float": st.one_of(
        _text,
        st.booleans(),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.lists(st.floats(), max_size=2),
    ),
    "str": st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(_text, max_size=2)),
    "bool": st.one_of(_text, st.integers(), st.floats(), st.lists(st.booleans(), max_size=2)),
    "list": st.one_of(_text, st.booleans(), st.integers(), st.floats()),
    "object": st.one_of(_text, st.booleans(), st.integers(), st.lists(st.integers(), max_size=2)),
}


def _wrong_values(kind: str):
    """Values of a wrong JSON type for ``kind``: null only where not nullable."""
    if kind.endswith("?"):
        return _WRONG[kind[:-1]]
    return st.one_of(_WRONG[kind], st.none())


def _dotted(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


def _put(cfg: dict, keys, value) -> None:
    node = cfg
    for key in keys[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[keys[-1]] = value


def _valid_config(out_dir) -> dict:
    return base_config_dict(
        clustering={"k": 2}, compare=[{"algorithm": "bpg"}], out_dir=str(out_dir)
    )


def test_config_kinds_name_every_field():
    blocks = {
        (): ExperimentConfig,
        ("problem",): ProblemConfig,
        ("problem", "data"): DataConfig,
        ("problem", "data", "synthetic"): SyntheticSpec,
        ("problem", "laplacian"): harness.LaplacianConfig,
        ("clustering",): ClusteringConfig,
        ("solver",): SolverConfig,
        ("compare", 0): SolverConfig,
    }
    every = {keys + (f.name,) for keys, cls in blocks.items() for f in fields(cls)}
    nested = {keys for keys in blocks if keys not in ((), ("compare", 0))}
    untyped = {("solver", "seed"), ("compare", 0, "seed")}
    assert set(_CONFIG_KINDS) == (every | nested) - untyped
    ExperimentConfig.from_dict(_valid_config("out"))


@settings(
    max_examples=10,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_rejects_every_wrong_typed_value_before_solving(
    tmp_path, capsys, monkeypatch, data
):
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    for keys, kind in _CONFIG_KINDS.items():
        where = _dotted(keys)
        cfg = _valid_config(out)
        _put(cfg, keys, data.draw(_wrong_values(kind), label=where))
        cfg_path.write_text(json.dumps(cfg))
        verb = data.draw(st.sampled_from(["run", "compare", "audit"]))
        assert cli_main([verb, "--config", str(cfg_path), "--quiet"]) == 1, where
        assert f"bregopt: config error: {where}" in capsys.readouterr().err
        assert not out.exists(), where


@pytest.mark.parametrize(
    "setting, message",
    [
        ('trials="2"', "trials must be an integer, got '2'"),
        ("seed=1.5", "seed must be an integer, got 1.5"),
        ('solver.max_epochs="3"', "solver.max_epochs must be an integer, got '3'"),
        ("solver.batch_size=true", "solver.batch_size must be an integer, got True"),
        ('problem.rank="2"', "problem.rank must be an integer, got '2'"),
        ("problem.rank=2.5", "problem.rank must be an integer, got 2.5"),
        ("problem.s1=3.5", "problem.s1 must be an integer, got 3.5"),
        ('problem.mu0="0.1"', "problem.mu0 must be a finite number, got '0.1'"),
        (
            'problem.data.synthetic.m="12"',
            "problem.data.synthetic.m must be an integer, got '12'",
        ),
        (
            "problem.data.synthetic.noise_sigma=NaN",
            "problem.data.synthetic.noise_sigma must be a finite number, got nan",
        ),
        (
            'problem.laplacian.neighbors="5"',
            "problem.laplacian.neighbors must be an integer, got '5'",
        ),
        (
            "problem.laplacian.neighbors=2.5",
            "problem.laplacian.neighbors must be an integer, got 2.5",
        ),
        ("basis_shape=[3.7,4]", "basis_shape[0] must be an integer, got 3.7"),
        ('emit="trace_csv"', "emit must be a list, got 'trace_csv'"),
        (
            'compare=[{"algorithm":"bpg"},{"bogus":1}]',
            "unknown key(s) in compare[1]: ['bogus']",
        ),
        (
            'compare=[{"algorithm":"bpg"},{"max_epochs":"3"}]',
            "compare[1].max_epochs must be an integer, got '3'",
        ),
        (
            'compare=[{"algorithm":"bpg"},{"algorithm":"sgd"}]',
            "compare[1]: algorithm must be one of",
        ),
        ("solver.theory_gamma=0.1", "unknown key(s) in solver: ['theory_gamma']"),
        ('solver.l_under_mode="zero"', "unknown key(s) in solver: ['l_under_mode']"),
        ("solver.eta0=1.0", "unknown key(s) in solver: ['eta0']"),
        ("solver.eta_floor=1e-8", "unknown key(s) in solver: ['eta_floor']"),
        ("solver.beta_scale=0.6", "unknown key(s) in solver: ['beta_scale']"),
        ("solver.delta=0.99", "unknown key(s) in solver: ['delta']"),
        ("solver.stop_window=3", "unknown key(s) in solver: ['stop_window']"),
        ("solver.restart_prob=0.5", "unknown key(s) in solver: ['restart_prob']"),
        ('compare=[{"restart_prob":0.5}]', "unknown key(s) in compare[0]: ['restart_prob']"),
        (
            'compare=[{"algorithm":"bpsge","estimator":"saga","batch_size":1},'
            '{"algorithm":"bpsge","estimator":"saga","batch_size":5}]',
            "compare[0] and compare[1] both run as 'bpsge_saga'",
        ),
        (
            'compare=[{"algorithm":"bpg"},{"algorithm":"bpge"},'
            '{"algorithm":"bpg","estimator":"sarah"}]',
            "compare[0] and compare[2] both run as 'bpg'",
        ),
        ("compare=[]", "compare must hold at least one entry"),
        ("seed=-1", "seed must be >= 0, got -1"),
        *(
            (f"solver.seed={value}", "solver.seed is not accepted: each trial's seed")
            for value in ("-5", '"abc"', "[1,2]", "3")
        ),
        (
            'compare=[{"algorithm":"bpg"},{"algorithm":"bpge","seed":3}]',
            "compare[1].seed is not accepted: each trial's seed",
        ),
    ],
)
def test_cli_names_the_wrong_typed_field_before_any_output(
    tmp_path, capsys, monkeypatch, setting, message
):
    monkeypatch.setattr(harness, "run", _no_solve)
    cfg_path = tmp_path / "cfg.json"
    cfg = base_config_dict(out_dir=str(tmp_path / "out"))
    cfg["problem"]["mu0"] = 0.1
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["compare", "--config", str(cfg_path), "--set", setting, "--quiet"])
    assert code == 1
    assert f"bregopt: config error: {message}" in capsys.readouterr().err
    # Not even the first combo of a compare grid is written.
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "compare"])
@pytest.mark.parametrize(
    "settings, message",
    [
        (["solver.l_bar=1.0"], "unknown key(s) in solver: ['l_bar']"),
        (['compare=[{"algorithm":"bpg","l_bar":1.0}]'], "unknown key(s) in compare[0]: ['l_bar']"),
        (['solver.beta_mode="off"'], "solver: beta_mode must be one of"),
        (
            ['compare=[{"algorithm":"bpg","beta_mode":"off"}]'],
            "compare[0]: beta_mode must be one of",
        ),
        (
            ['solver={"algorithm":"bpsg","estimator":"full"}'],
            "solver: estimator 'full' is not stochastic: bpsg takes",
        ),
        (
            ['compare=[{"algorithm":"bpsge","estimator":"full"}]'],
            "compare[0]: estimator 'full' is not stochastic: bpsge takes",
        ),
        (
            [
                'solver={"algorithm":"bpg","estimator":"full"}',
                'compare=[{"algorithm":"bpge"},{"algorithm":"bpsg"}]',
            ],
            "compare[1]: estimator 'full' is not stochastic: bpsg takes",
        ),
    ],
    ids=[
        "l_bar", "compare-l_bar", "beta-off", "compare-beta-off",
        "bpsg-full", "compare-bpsge-full", "compare-bpsg-inherits-full",
    ],
)
def test_cli_rejects_a_removed_solver_spelling_before_loading_data(
    tmp_path, capsys, verb, settings, message
):
    # Each variant has one spelling: L_bar = 1 is the kernel's, the
    # algorithm says whether a run extrapolates, and bpsg/bpsge sample
    # columns.  The data file does not exist, so a check that came after
    # the data load would report that instead.
    problem = {"kind": "wcmf", "rank": 2, "data": {"path": str(tmp_path / "none.csv")}}
    out = tmp_path / "out"
    argv = [verb, "--set", f"problem={json.dumps(problem)}", "--out", str(out), "--quiet"]
    for setting in settings:
        argv += ["--set", setting]
    assert cli_main(argv) == 1
    assert f"bregopt: config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    # Without the removed spelling the config is read, and the data load fails.
    assert cli_main(argv[: -2 * len(settings)]) == 1
    assert "data file not found" in capsys.readouterr().err


# Every problem key a kind reads, with a valid value.
_OWN_KEYS = {
    "gnmf": {"mu0": 0.1, "laplacian": {"neighbors": 3}},
    "wcmf": {"lambda1": 0.1, "lambda2": 0.01},
    "ssnmf": {"s1": 2, "s2": 2},
}


@pytest.mark.parametrize("kind", sorted(_OWN_KEYS))
def test_cli_rejects_another_kinds_problem_key_before_loading_data(
    tmp_path, capsys, kind
):
    # The data file does not exist, so a check that came after the data load
    # would report that instead.
    problem = {"kind": kind, "rank": 2, "data": {"path": str(tmp_path / "none.csv")}}
    problem.update(_OWN_KEYS[kind])
    out = tmp_path / "out"
    foreign = {k: v for other in _OWN_KEYS.values() for k, v in other.items()}
    for key in sorted(set(foreign) - set(_OWN_KEYS[kind])):
        setting = f"problem={json.dumps({**problem, key: foreign[key]})}"
        code = cli_main(["run", "--set", setting, "--out", str(out), "--quiet"])
        assert code == 1, key
        err = capsys.readouterr().err
        assert f"config error: problem.{key} does not apply to kind '{kind}'" in err
        assert not out.exists(), key
    # With only its own keys the config is read, and the data load fails.
    setting = f"problem={json.dumps(problem)}"
    assert cli_main(["run", "--set", setting, "--out", str(out), "--quiet"]) == 1
    assert "data file not found" in capsys.readouterr().err


def test_cli_rejects_a_laplacian_that_mu0_zero_leaves_unread(
    tmp_path, capsys, monkeypatch
):
    # The data file does not exist, so a check that came after the data load
    # would report that instead.
    monkeypatch.setattr(harness, "run", _no_solve)
    problem = {"kind": "gnmf", "rank": 2, "data": {"path": str(tmp_path / "none.csv")}}
    out = tmp_path / "out"
    path_only = [
        "run", "--set", f"problem={json.dumps(problem)}",
        "--set", "problem.laplacian.path=/nonexistent/L.csv",
        "--out", str(out), "--quiet",
    ]
    argv = path_only + ["--set", "problem.laplacian.neighbors=4"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "config error: problem.laplacian is unused while problem.mu0 is 0" in err
    assert not out.exists()
    # With mu0 > 0 the block is read: the file replaces the kNN graph, so
    # its neighbors go unread.
    assert cli_main(argv + ["--set", "problem.mu0=0.1"]) == 1
    err = capsys.readouterr().err
    assert "config error: problem.laplacian.neighbors is unused beside" in err
    # The path alone is read, and the data load fails first.
    assert cli_main(path_only + ["--set", "problem.mu0=0.1"]) == 1
    assert "data file not found" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compare", "audit"])
@pytest.mark.parametrize(
    "laplacian, message",
    [
        (
            '{"weighting":"gauss"}',
            "problem.laplacian.weighting must be 'binary' or 'heat', got 'gauss'",
        ),
        ('{"neighbors":0}', "problem.laplacian.neighbors must be >= 1, got 0"),
        (
            '{"neighbors":12}',
            "problem.laplacian.neighbors = 12 must be below the 12 rows of M",
        ),
        ('{"weighting":"heat","sigma":0.0}', "problem.laplacian.sigma must be > 0"),
        ('{"weighting":"heat","sigma":-1.0}', "problem.laplacian.sigma must be > 0"),
        (
            '{"sigma":-1.0}',
            "problem.laplacian.sigma is unused with 'binary' weighting",
        ),
        (
            '{"weighting":"binary","sigma":2.0}',
            "problem.laplacian.sigma is unused with 'binary' weighting",
        ),
        *(
            (
                f'{{"path":"/nonexistent/L.csv",{entry}}}',
                f"problem.laplacian.{key} is unused beside problem.laplacian.path",
            )
            for key, entry in (
                ("neighbors", '"neighbors":5'),
                ("weighting", '"weighting":"binary"'),
                ("sigma", '"weighting":"heat","sigma":1.0'),
            )
        ),
    ],
)
def test_cli_rejects_a_bad_laplacian_block_before_solving(
    tmp_path, capsys, monkeypatch, verb, laplacian, message
):
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    code = cli_main(
        [
            verb,
            "--set",
            'problem={"kind":"gnmf","rank":2,"mu0":0.1,'
            '"data":{"synthetic":{"m":12,"d":8,"r_true":2}}}',
            "--set",
            f"problem.laplacian={laplacian}",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 1
    assert f"bregopt: config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "compare", "audit"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("asymmetric", "laplacian must be symmetric"),
        ("row-sums", "laplacian rows must sum to zero"),
        ("positive-off-diagonal", "laplacian off-diagonal entries must be <= 0"),
        ("wrong-size", "laplacian must be 12x12, got (3, 3)"),
    ],
)
def test_cli_rejects_a_bad_laplacian_file_before_solving(
    tmp_path, capsys, monkeypatch, verb, case, message
):
    # The 12-node path graph, broken one way per case.
    lap = 2.0 * np.eye(12) - np.eye(12, k=1) - np.eye(12, k=-1)
    lap[0, 0] = lap[-1, -1] = 1.0
    if case == "asymmetric":
        lap[0, 1] = -2.0
    elif case == "row-sums":
        lap[3, 3] += 1.0
    elif case == "positive-off-diagonal":
        lap = -lap
    else:
        lap = lap[:3, :3]
    path = tmp_path / "L.csv"
    save_matrix(path, lap)
    monkeypatch.setattr(harness, "run", _no_solve)
    out = tmp_path / "out"
    problem = {
        "kind": "gnmf",
        "rank": 2,
        "mu0": 0.1,
        "data": {"synthetic": {"m": 12, "d": 8, "r_true": 2}},
        "laplacian": {"path": str(path)},
    }
    argv = [verb, "--set", f"problem={json.dumps(problem)}", "--out", str(out)]
    assert cli_main(argv + ["--quiet"]) == 1
    assert f"bregopt: config error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_an_unknown_kind_before_loading_data(tmp_path, capsys):
    problem = {"kind": "pca", "rank": 2, "data": {"path": str(tmp_path / "none.csv")}}
    out = tmp_path / "out"
    setting = f"problem={json.dumps(problem)}"
    assert cli_main(["run", "--set", setting, "--out", str(out), "--quiet"]) == 1
    assert "config error: unknown problem kind 'pca'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_config_file_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1]")
    code = cli_main(["run", "--config", str(cfg_path), "--set", "trials=2", "--quiet"])
    assert code == 1
    assert "must hold a JSON object" in capsys.readouterr().err
