"""Benchmark harness: data IO, synthetic instances, clustering scores, and
multi-trial experiment drivers.

Experiments are described by a JSON-friendly configuration: a problem block
(kind, rank, data source, regularization), a solver block, a trial count and
output options.  A run executes ``trials`` independent repetitions with
per-trial start points and randomness derived from the master seed by
documented seed-splitting, then writes epoch-granular trace CSVs (pointwise
means and standard deviations across trials), a JSON summary, and optional
per-trial dumps and PGM images of the learned basis columns.

File formats: the suffix alone picks a matrix's format, headerless CSV
(``.csv``) or MatrixMarket array (``.mtx``, ``.mm``; column-major, ``real
general``); labels are one integer per line.  Every input file is read by one
line scanner, and a parse failure names ``path:line``.  All numeric text
output uses 17 significant digits so float64 values round-trip exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .estimators import (
    check_geometric_decay,
    effective_batch_size,
    effective_restart_prob,
    estimate_sample_lipschitz,
)
from .kernels import FactorPair
from .numeric import as_dense, make_rng
from .problems import (
    LaplacianError,
    Problem,
    build_knn_laplacian,
    build_problem,
)
from .solver import RunResult, SolverConfig, rate_check, run

__all__ = [
    "ConfigError",
    "MatrixParseError",
    "SyntheticSpec",
    "DataConfig",
    "LaplacianConfig",
    "ClusteringConfig",
    "ProblemConfig",
    "ExperimentConfig",
    "load_matrix",
    "save_matrix",
    "write_pgm",
    "basis_images",
    "generate_synthetic",
    "init_point",
    "kmeans_accuracy",
    "run_experiment",
    "run_compare",
    "run_audit",
    "run_gen",
]

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


class MatrixParseError(ConfigError):
    """An input file failed to parse; carries the path and 1-based line."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


# ---------------------------------------------------------------------------
# matrix file IO


def _is_csv(path: Path) -> bool:
    """Whether the suffix names CSV (.csv) rather than MatrixMarket (.mtx, .mm)."""
    suffix = path.suffix.lower()
    if suffix not in (".csv", ".mtx", ".mm"):
        raise ConfigError(
            f"cannot infer matrix format from {path.name!r}: "
            "name it .csv, .mtx or .mm"
        )
    return suffix == ".csv"


def load_matrix(path) -> np.ndarray:
    """Read a dense, finite matrix in the format its file suffix names."""
    path = Path(path)
    return (_load_csv if _is_csv(path) else _load_mm)(path)


def save_matrix(path, a) -> None:
    path = Path(path)
    (_write_csv if _is_csv(path) else _save_mm)(path, as_dense(a, "matrix"))


def _lines(path: Path) -> list[str]:
    """The stripped lines of a UTF-8 text file: item i is line i + 1, and a
    leading byte-order mark (spreadsheet exports) is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return [raw.strip() for raw in fh]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}") from None


_INT64 = range(-(2**63), 2**63)


def _entries(path: Path, lineno: int, tokens: list[str], kind=float) -> list:
    """The tokens of one line as finite floats, or as int64 values when
    ``kind`` is int; a bad token is an error naming the line."""
    values = []
    for tok in tokens:
        try:
            val = kind(tok)
        except ValueError:
            what = "not numeric:" if kind is float else "not an integer:"
            raise MatrixParseError(path, lineno, f"{what} {tok.strip()!r}") from None
        if not (math.isfinite(val) if kind is float else val in _INT64):
            what = "non-finite entry" if kind is float else "entry beyond int64"
            raise MatrixParseError(path, lineno, f"{what} {tok.strip()!r}")
        values.append(val)
    return values


def _load_csv(path: Path, kind=float, width: int | None = None) -> np.ndarray:
    """Comma-separated rows of equal ``width`` (that of the first row when
    None); blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line:
            continue
        row = _entries(path, lineno, line.split(","), kind)
        if width is None:
            width = len(row)
        elif len(row) != width:
            columns = f"{width} column{'s' * (width > 1)}"
            raise MatrixParseError(
                path, lineno, f"expected {columns}, found {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise MatrixParseError(path, 1, "empty file")
    return np.array(rows, dtype=kind)


def _write_csv(path, lines) -> None:
    """One comma-joined line per sequence of cells: a str cell as it is,
    any other with ``FLOAT_FMT``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for cells in lines:
            fh.write(",".join(c if isinstance(c, str) else FLOAT_FMT % c for c in cells))
            fh.write("\n")


def _load_mm(path: Path) -> np.ndarray:
    lines = _lines(path)
    if not lines:
        raise MatrixParseError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixParseError(path, 1, "missing '%%MatrixMarket' header")
    _, obj, layout, fld, symmetry = header
    if obj != "matrix" or layout != "array":
        raise MatrixParseError(
            path, 1, f"only 'matrix array' files are supported, got {obj} {layout}"
        )
    if fld not in ("real", "integer"):
        raise MatrixParseError(path, 1, f"unsupported field {fld!r}")
    if symmetry != "general":
        raise MatrixParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    m = n = None
    values: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if m is None:
            if len(parts) != 2:
                raise MatrixParseError(
                    path, lineno, f"expected 'rows cols', got {line!r}"
                )
            try:
                m, n = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixParseError(
                    path, lineno, f"non-integer dimensions: {line!r}"
                ) from None
            if m <= 0 or n <= 0:
                raise MatrixParseError(path, lineno, "dimensions must be positive")
            continue
        values += _entries(path, lineno, parts)
        if len(values) > m * n:
            raise MatrixParseError(path, lineno, f"more than {m * n} entries")
    # The end-of-file checks name the file's last line.
    if m is None:
        raise MatrixParseError(path, len(lines), "missing dimension line")
    if len(values) != m * n:
        raise MatrixParseError(
            path, len(lines), f"expected {m * n} entries, found {len(values)}"
        )
    # MatrixMarket array files store entries column by column.
    return np.ascontiguousarray(np.reshape(values, (m, n), order="F"))


def _save_mm(path: Path, a: np.ndarray) -> None:
    m, n = a.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for v in a.T.ravel():
            fh.write(FLOAT_FMT % v)
            fh.write("\n")


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D uint8 array as a binary (P5) PGM image."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("write_pgm expects a 2-D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def basis_images(u: np.ndarray, shape: tuple[int, int]) -> list[np.ndarray]:
    """Columns of U min-max normalized to uint8 and reshaped row-major.

    A constant column maps to all zeros.
    """
    u = as_dense(u, "u")
    h, w = int(shape[0]), int(shape[1])
    if h * w != u.shape[0]:
        raise ValueError(
            f"basis shape {h}x{w} does not match column length {u.shape[0]}"
        )
    images = []
    for j in range(u.shape[1]):
        col = u[:, j]
        lo, hi = col.min(), col.max()
        if hi > lo:
            scaled = np.round((col - lo) / (hi - lo) * 255.0)
        else:
            scaled = np.zeros_like(col)
        images.append(scaled.astype(np.uint8).reshape(h, w))
    return images


# ---------------------------------------------------------------------------
# synthetic data and start points


@dataclass(frozen=True)
class SyntheticSpec:
    """Low-rank clustered instance description.

    Rows are split into ``cluster_count`` contiguous groups; each group's
    rows share one dominant latent component, so row-clustering the true
    basis recovers the labels exactly.  Requires cluster_count <= r_true so
    distinct clusters get distinct components.
    """

    m: int
    d: int
    r_true: int
    cluster_count: int = 1
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ConfigError("m and d must be >= 1")
        if not 1 <= self.r_true <= min(self.m, self.d):
            raise ConfigError(f"r_true must be in [1, {min(self.m, self.d)}]")
        if not 1 <= self.cluster_count <= self.r_true:
            raise ConfigError("cluster_count must be in [1, r_true]")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be >= 0")


def generate_synthetic(
    spec: SyntheticSpec, rng: np.random.Generator, return_factors: bool = False
):
    """(M, labels) with M = U* V* + noise and block-structured U* >= 0.

    Labels are contiguous, nearly equal-sized blocks.  U* has uniform(0, 0.1)
    background entries plus a uniform(0.9, 1.1) bump on each row's cluster
    component; V* is uniform(0, 1).  Gaussian noise is added only when
    noise_sigma > 0, so a zero-noise instance has exact rank r_true.
    """
    labels = np.repeat(
        np.arange(spec.cluster_count),
        np.diff(np.linspace(0, spec.m, spec.cluster_count + 1).astype(int)),
    )
    ustar = rng.uniform(0.0, 0.1, size=(spec.m, spec.r_true))
    ustar[np.arange(spec.m), labels] += rng.uniform(0.9, 1.1, size=spec.m)
    vstar = rng.uniform(0.0, 1.0, size=(spec.r_true, spec.d))
    m_data = ustar @ vstar
    if spec.noise_sigma > 0.0:
        m_data = m_data + spec.noise_sigma * rng.standard_normal((spec.m, spec.d))
    if return_factors:
        return m_data, labels, ustar, vstar
    return m_data, labels


def init_point(m: int, r: int, d: int, rng: np.random.Generator) -> FactorPair:
    """Entrywise uniform(0, 0.1) start factors (U drawn first, then V)."""
    return FactorPair(
        rng.uniform(0.0, 0.1, size=(m, r)), rng.uniform(0.0, 0.1, size=(r, d))
    )


# ---------------------------------------------------------------------------
# clustering score


# Bound on the (restarts, n, k, r) difference array that Lloyd's distance step
# forms; beyond it the restarts are taken a few at a time.
_DIST_CHUNK_BYTES = 1 << 23


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of x, the first drawn uniformly, each next one
    with probability proportional to its squared distance to the nearest
    center so far (uniformly when every row coincides with a chosen center)."""
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
    return centers


def _sq_dists(xk: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(restarts, n, k) squared distances from the rows of x to each set in a
    (restarts, k, r) stack of centers.

    ``xk`` is x with each row repeated k times, (n, k, r), so the subtraction
    runs over k * r contiguous values.  The squares are summed over the
    contiguous coordinate axis, for as many restarts at a time as keep the
    difference array within ``_DIST_CHUNK_BYTES``.
    """
    step = max(1, _DIST_CHUNK_BYTES // xk.nbytes)
    dist = np.empty((len(centers),) + xk.shape[:2])
    for lo in range(0, len(centers), step):
        chunk = slice(lo, lo + step)
        np.sum((xk - centers[chunk, None]) ** 2, axis=-1, out=dist[chunk])
    return dist


def _cluster_means(x: np.ndarray, assign: np.ndarray, served: np.ndarray, k: int):
    """(restarts, k, r) means of the rows of x per (restart, cluster) group.

    Each group's rows are summed one by one in row order, by one weighted
    ``np.bincount`` over every (coordinate, group) cell, and divided by their
    count.  A cluster left empty is re-seeded at the row its restart serves
    worst: the largest of that restart's ``served`` distances.
    """
    n_sets, r = len(assign), x.shape[1]
    n_groups = n_sets * k
    groups = (assign + k * np.arange(n_sets)[:, None]).ravel()
    counts = np.bincount(groups, minlength=n_groups).reshape(n_sets, k, 1)
    cells = (groups + n_groups * np.arange(r)[:, None]).ravel()
    sums = np.bincount(
        cells, weights=np.tile(x.T, n_sets).ravel(), minlength=r * n_groups
    )
    means = sums.reshape(r, n_sets, k).transpose(1, 2, 0)
    np.divide(means, counts, out=means, where=counts > 0)
    empty_set, empty_j = np.nonzero(counts[..., 0] == 0)
    if empty_set.size:
        means[empty_set, empty_j] = x[served[empty_set].argmax(axis=1)]
    return means


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int = 300):
    """Lloyd's algorithm from each set of a (restarts, k, r) stack of start
    centers, all restarts iterated together; returns (assign, inertia) with
    one row of assignments and one inertia per restart.

    A restart stops at the first iteration that leaves its assignment
    unchanged, or after ``max_iter`` iterations; its inertia sums the
    distances of that last iteration.
    """
    n_sets, k, _ = centers.shape
    n = x.shape[0]
    xk = np.repeat(x[:, None, :], k, axis=1)
    # Flat index of each row's first distance in a (restarts, n, k) array.
    row_at = k * np.arange(n_sets * n).reshape(n_sets, n)
    centers = centers.copy()
    assign = np.full((n_sets, n), -1)
    served = np.empty(assign.shape)  # each row's distance to its own center
    active = np.arange(n_sets)
    for _ in range(max_iter):
        dist = _sq_dists(xk, centers[active])
        new = dist.argmin(axis=-1)
        served[active] = np.take(dist, row_at[: len(active)] + new)
        moved = (new != assign[active]).any(axis=1)
        active, new = active[moved], new[moved]
        if not active.size:
            break
        assign[active] = new
        centers[active] = _cluster_means(x, new, served[active], k)
    return assign, served.sum(axis=1)


def kmeans_accuracy(
    u,
    labels,
    k: int,
    restarts: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Best-permutation clustering accuracy of k-means on the rows of ``u``.

    Seeds ``restarts`` k-means++ center sets in order from the one ``rng``
    (Lloyd's iterations draw no random numbers), runs Lloyd's algorithm on all
    of them together, keeps the first lowest-inertia assignment, then matches
    clusters to label classes by a maximum-agreement assignment; returns the
    matched fraction in [0, 1].

    Each restart gets the bits it would get if run on its own: distances are
    summed over the contiguous coordinate axis, and a cluster's new center
    is its rows summed one by one in row order and divided by their count,
    which is how ``x[mask].mean(axis=0)`` reduces a (rows, r) block for
    r >= 2.  For r = 1 that mean sums pairwise instead, so a rank-1 center
    can differ from it in the last bit.
    """
    u = as_dense(u, "u")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != u.shape[0]:
        raise ValueError(
            f"got {labels.size} labels for {u.shape[0]} rows"
        )
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    if not 1 <= k <= u.shape[0]:
        raise ValueError(f"k must be in [1, {u.shape[0]}]")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if rng is None:
        rng = np.random.default_rng()

    centers = np.stack([_kmeans_pp(u, k, rng) for _ in range(restarts)])
    best_assign, best_inertia = None, math.inf
    for assign, inertia in zip(*_lloyd(u, centers)):
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia

    # Dense class ids: a class with no rows would only add zero columns.
    classes, labels = np.unique(labels, return_inverse=True)
    n_classes = len(classes)
    confusion = np.bincount(
        best_assign * n_classes + labels, minlength=k * n_classes
    ).reshape(k, n_classes)
    # Imported here: scipy.optimize takes about 0.3 s to import, and nothing
    # else in the package reads it.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / labels.size)


# ---------------------------------------------------------------------------
# experiment configuration


# How a message names what each leaf type accepts.
_LEAF_NAMES = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
}


@functools.cache
def _field_types(cls):
    """(resolved type of each field, names of required fields) of ``cls``."""
    needed = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    return typing.get_type_hints(cls), needed


def _from_dict(cls, d, where: str):
    """The config dataclass ``cls`` built from the JSON object ``d``.

    Every key and leaf type is checked against the fields of ``cls``, and
    nested blocks are read the same way; ``where`` is the dotted ``--set``
    path of ``d`` that messages name.  A plain ``ValueError`` from the
    constructor's range rules becomes a ``ConfigError`` naming the block.
    """
    block = where or "config"
    if not isinstance(d, dict):
        raise ConfigError(f"{block} must be an object, got {d!r}")
    types, needed = _field_types(cls)
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s) in {block}: {sorted(unknown)}")
    for name in needed:
        if name not in d:
            raise ConfigError(f"{block} needs {name!r}")
    at = f"{where}." if where else ""
    kwargs = {name: _leaf(types[name], v, at + name) for name, v in d.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{block}: {exc}") from None


def _leaf(tp, v, where: str):
    """The value ``v`` checked against the field type ``tp``; JSON lists
    become tuples and objects become nested config dataclasses."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if v is None:
            return None
        tp, args = args[0], typing.get_args(args[0])
    if is_dataclass(tp):
        return _from_dict(tp, v, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {v!r}")
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(v)
        elif len(v) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values, got {v!r}")
        items = enumerate(zip(args, v))
        return tuple(_leaf(t, x, f"{where}[{i}]") for i, (t, x) in items)
    if tp is object or tp is float and type(v) is int:  # an int is a valid float
        return v
    if type(v) is not tp or tp is float and not math.isfinite(v):
        raise ConfigError(f"{where} must be {_LEAF_NAMES[tp]}, got {v!r}")
    return v


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self):
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("data needs exactly one of 'path' or 'synthetic'")


@dataclass(frozen=True)
class LaplacianConfig:
    """A Laplacian read from ``path``, or else the kNN graph that
    ``build_knn_laplacian`` builds over the rows of M.  ``neighbors`` below
    the rows of M is checked against the data, before any solve."""

    path: str | None = None
    neighbors: int = 5
    weighting: str = "binary"
    sigma: float | None = None

    def __post_init__(self):
        where = "problem.laplacian"
        if self.weighting not in ("binary", "heat"):
            raise ConfigError(
                f"{where}.weighting must be 'binary' or 'heat', got {self.weighting!r}"
            )
        if self.neighbors < 1:
            raise ConfigError(f"{where}.neighbors must be >= 1, got {self.neighbors}")
        if self.sigma is not None and self.weighting != "heat":
            raise ConfigError(
                f"{where}.sigma is unused with {self.weighting!r} weighting: "
                "set weighting to 'heat', or drop sigma"
            )
        if self.sigma is not None and self.sigma <= 0.0:
            raise ConfigError(f"{where}.sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class ClusteringConfig:
    k: int
    restarts: int = 10
    labels_path: str | None = None

    def __post_init__(self):
        for name in ("k", "restarts"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(
                    f"clustering.{name} must be an integer >= 1, got {value!r}"
                )


# The problem keys each kind's constructor reads; ``build_experiment_problem``
# passes exactly these, and a config that sets another kind's key is rejected.
_KIND_KEYS = {
    "gnmf": ("mu0", "laplacian"),
    "wcmf": ("lambda1", "lambda2"),
    "ssnmf": ("s1", "s2"),
}


@dataclass(frozen=True)
class ProblemConfig:
    kind: str
    rank: int
    data: DataConfig
    mu0: float = 0.0
    laplacian: LaplacianConfig = field(default_factory=LaplacianConfig)
    lambda1: float = 0.05
    lambda2: float = 0.02
    s1: int | None = None
    s2: int | None = None

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            raise ConfigError(f"unknown problem kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    trials: int = 1
    seed: int = 0
    out_dir: str = "out"
    emit: tuple[str, ...] = ("trace_csv", "summary_json")
    basis_shape: tuple[int, int] | None = None
    clustering: ClusteringConfig | None = None
    compare: tuple[dict, ...] | None = None
    name: str = "experiment"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.compare is not None and not self.compare:
            raise ConfigError("compare must hold at least one entry")
        bad = set(self.emit) - {"trace_csv", "summary_json", "per_trial_csv", "basis_pgm"}
        if bad:
            raise ConfigError(f"unknown emit option(s): {sorted(bad)}")
        if "basis_pgm" in self.emit and self.basis_shape is None:
            raise ConfigError("emit basis_pgm requires basis_shape")
        # Clustering labels come from exactly one source: synthetic data
        # brings its own, file data needs a labels file.
        if self.clustering is not None:
            synthetic = self.problem.data.synthetic is not None
            if synthetic and self.clustering.labels_path is not None:
                raise ConfigError(
                    "clustering.labels_path must be omitted with synthetic data, "
                    "which brings its own labels"
                )
            if not synthetic and self.clustering.labels_path is None:
                raise ConfigError("clustering.labels_path is required with data.path")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """The experiment read from its JSON object.  Each compare entry
        overrides the solver block for one combo; it is checked here, merged
        over that block, so a bad entry fails before anything runs.  Two
        entries that run as the same combo would write the same files.  A
        solver seed is rejected: each trial's comes from the top-level one,
        and so is a problem key that only another kind reads, a Laplacian
        block that mu0 = 0 leaves unread, or a kNN key beside the Laplacian
        file that replaces the kNN graph."""
        cfg = _from_dict(ExperimentConfig, d, "")
        kind = cfg.problem.kind
        own = _KIND_KEYS[kind]
        for key in d["problem"]:
            if key not in own and any(key in keys for keys in _KIND_KEYS.values()):
                raise ConfigError(
                    f"problem.{key} does not apply to kind {kind!r}, which "
                    f"reads {' and '.join(own)}"
                )
        if "laplacian" in d["problem"] and cfg.problem.mu0 == 0.0:
            raise ConfigError(
                "problem.laplacian is unused while problem.mu0 is 0: set "
                "problem.mu0 > 0 for the graph term, or drop the block"
            )
        if cfg.problem.laplacian.path is not None:
            beside = sorted(set(d["problem"]["laplacian"]) - {"path"})
            if beside:
                raise ConfigError(
                    f"problem.laplacian.{beside[0]} is unused beside "
                    "problem.laplacian.path, whose file is the Laplacian"
                )
        solver = d.get("solver", {})
        compare = {f"compare[{i}]": e for i, e in enumerate(cfg.compare or ())}
        for where, entry in {"solver": solver, **compare}.items():
            if "seed" in entry:
                raise ConfigError(
                    f"{where}.seed is not accepted: each trial's seed comes "
                    "from the top-level 'seed'"
                )
        tags = {}
        for where, overrides in compare.items():
            tag = _combo_tag(_from_dict(SolverConfig, {**solver, **overrides}, where))
            if tag in tags:
                raise ConfigError(f"{tags[tag]} and {where} both run as {tag!r}")
            tags[tag] = where
        return cfg


# ---------------------------------------------------------------------------
# data and problem assembly


def load_experiment_data(cfg: ExperimentConfig):
    """(M, labels or None) for the experiment's data block."""
    data = cfg.problem.data
    if data.synthetic is not None:
        return generate_synthetic(data.synthetic, make_rng((cfg.seed, 1)))
    try:
        m_data = load_matrix(data.path)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {data.path}") from None
    labels = None
    if cfg.clustering is not None:
        path = cfg.clustering.labels_path
        try:
            labels = _load_csv(Path(path), int, width=1).ravel()
        except FileNotFoundError:
            raise ConfigError(f"labels file not found: {path}") from None
        if labels.size != m_data.shape[0]:
            raise ConfigError(
                f"{path}: got {labels.size} labels for {m_data.shape[0]} rows of M"
            )
        if labels.min() < 0:
            raise ConfigError(f"{path}: labels must be nonnegative integers")
    return m_data, labels


def build_experiment_problem(cfg: ExperimentConfig, m_data: np.ndarray) -> Problem:
    p = cfg.problem
    params = {key: getattr(p, key) for key in _KIND_KEYS[p.kind]}
    if p.kind == "gnmf":
        lap = p.laplacian
        if p.mu0 <= 0.0:
            params["laplacian"] = None
        elif lap.path is not None:
            params["laplacian"] = load_matrix(lap.path)
        else:
            rows = m_data.shape[0]
            if lap.neighbors >= rows:
                raise ConfigError(
                    f"problem.laplacian.neighbors = {lap.neighbors} must be "
                    f"below the {rows} rows of M"
                )
            params["laplacian"] = build_knn_laplacian(
                m_data, lap.neighbors, lap.weighting, lap.sigma
            )
    if p.kind == "ssnmf" and None in params.values():
        raise ConfigError("ssnmf needs s1 and s2")
    try:
        return build_problem(p.kind, m_data, p.rank, **params)
    except LaplacianError as exc:
        # Only a file can hold a bad Laplacian; a kNN graph passes.
        raise ConfigError(f"{p.laplacian.path}: {exc}") from None


def _trial_init(cfg: ExperimentConfig, problem: Problem, t: int) -> FactorPair:
    m, r, d = problem.shape
    return init_point(m, r, d, make_rng((cfg.seed, 1000 + t)))


def _point_hash(x: FactorPair) -> str:
    h = hashlib.sha256()
    h.update(x.u.tobytes())
    h.update(x.v.tobytes())
    return h.hexdigest()[:16]


def _run_trials(
    cfg: ExperimentConfig,
    problem: Problem,
    solver_cfg: SolverConfig,
    starts: list[FactorPair],
) -> list[RunResult]:
    """One result per trial: trial t runs from ``starts[t]``."""
    return [
        run(problem, replace(solver_cfg, seed=(cfg.seed, 2000 + t)), x0)
        for t, x0 in enumerate(starts)
    ]


# ---------------------------------------------------------------------------
# trace aggregation and output


_TRACE_FIELDS = ("objective", "bregman_step", "eta", "beta")
_trace_values = attrgetter(*_TRACE_FIELDS)
# The keys of an across-trial trace row besides its epoch, in column order
_STAT_KEYS = tuple(f"{name}_{stat}" for name in _TRACE_FIELDS for stat in ("mean", "std"))


def aggregate_traces(results: list[RunResult], max_epochs: int):
    """Pointwise mean/std rows across trials; early-stopped trials are padded
    by carrying their final row forward.  Returns (rows, padded_trials).

    The trials of each (row, field) cell lie along the contiguous last axis of
    one (rows, fields, trials) array, so one ``mean``/``std`` call reduces
    every cell exactly as the 1-D ``np.mean``/``np.std`` of its values would.
    """
    n_rows = max_epochs + 1
    epochs = np.arange(n_rows)
    cells = np.empty((n_rows, len(_TRACE_FIELDS), len(results)))
    padded_trials = 0
    for t, res in enumerate(results):
        vals = np.array([_trace_values(row) for row in res.trace])
        cells[:, :, t] = vals[np.minimum(epochs, len(vals) - 1)]
        padded_trials += len(vals) < n_rows
    stats = np.stack([cells.mean(axis=-1), cells.std(axis=-1)], axis=-1)
    agg = [
        {"epoch": e, **dict(zip(_STAT_KEYS, vals))}
        for e, vals in enumerate(stats.reshape(n_rows, -1).tolist())
    ]
    return agg, padded_trials


def write_trace_csv(path, rows) -> None:
    lines = [[str(row["epoch"]), *(row[key] for key in _STAT_KEYS)] for row in rows]
    _write_csv(path, [["epoch", *_STAT_KEYS], *lines])


def write_trial_csv(path, res: RunResult) -> None:
    lines = [
        [str(row.epoch), *_trace_values(row), "1" if row.feasible else "0"]
        for row in res.trace
    ]
    _write_csv(path, [["epoch", *_TRACE_FIELDS, "feasible"], *lines])


def _status(results: list[RunResult]) -> str:
    failed = sum(1 for r in results if r.failed)
    if failed == 0:
        return "ok"
    if failed * 2 <= len(results):
        return "partial"
    return "failed"


def _summarize(
    cfg: ExperimentConfig, solver_cfg: SolverConfig, results, padded, init_hashes, labels
):
    """A summary of ``results``.  With a clustering block, each trial t that
    did not fail is scored by k-means on its final U, drawing from
    (seed, 2, t)."""
    ok = [(t, r) for t, r in enumerate(results) if not r.failed]
    finals = [r.trace[-1].objective for _, r in ok]
    summary = {
        "name": cfg.name,
        "kind": cfg.problem.kind,
        "algorithm": solver_cfg.algorithm,
        "estimator": solver_cfg.resolved().estimator,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "max_epochs": solver_cfg.max_epochs,
        "status": _status(results),
        "failed_trials": len(results) - len(ok),
        "failure_messages": [r.message for r in results if r.failed],
        "padded_trials": padded,
        "hit_eta_floor": any(r.hit_eta_floor for r in results),
        "init_hashes": init_hashes,
        "final_objective_mean": float(np.mean(finals)) if finals else None,
        "final_objective_std": float(np.std(finals)) if finals else None,
    }
    if cfg.clustering is not None and ok:
        accs = [
            kmeans_accuracy(
                r.x.u,
                labels,
                cfg.clustering.k,
                restarts=cfg.clustering.restarts,
                rng=make_rng((cfg.seed, 2, t)),
            )
            for t, r in ok
        ]
        summary["accuracy_mean"] = float(np.mean(accs))
        summary["accuracy_std"] = float(np.std(accs))
    return summary


def _write_json(path, payload) -> None:
    # One write: with ``indent``, json.dump streams through the pure-Python
    # encoder in many small writes.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_outputs(cfg, out_dir: Path, tag: str, results, rows, summary):
    paths = []
    if "trace_csv" in cfg.emit:
        p = out_dir / f"trace_{tag}.csv"
        write_trace_csv(p, rows)
        paths.append(p)
    if "per_trial_csv" in cfg.emit:
        for t, res in enumerate(results):
            p = out_dir / f"trial_{tag}_{t:03d}.csv"
            write_trial_csv(p, res)
            paths.append(p)
    if "basis_pgm" in cfg.emit:
        images = basis_images(results[0].x.u, cfg.basis_shape)
        for j, img in enumerate(images):
            p = out_dir / f"basis_{tag}_{j:02d}.pgm"
            write_pgm(p, img)
            paths.append(p)
        summary["basis_source"] = "trial 0 final U"
    if "summary_json" in cfg.emit:
        p = out_dir / f"summary_{tag}.json"
        _write_json(p, summary)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# drivers


def _prepare(cfg: ExperimentConfig):
    """Shared driver start: (start time, output dir, problem, labels, trial
    start points, their hashes), each start drawn once for every variant.

    The clustering block (with the labels file of file data) and an emitted
    ``basis_shape`` are checked against the data here, and the kNN graph's
    ``neighbors`` and a Laplacian file in ``build_experiment_problem``:
    before any solve and before the output directory is made.
    """
    t0 = time.perf_counter()
    m_data, labels = load_experiment_data(cfg)
    rows = m_data.shape[0]
    if cfg.clustering is not None and cfg.clustering.k > rows:
        raise ConfigError(
            f"clustering.k = {cfg.clustering.k} exceeds the {rows} rows of M"
        )
    if "basis_pgm" in cfg.emit:
        h, w = cfg.basis_shape
        if min(h, w) < 1 or h * w != rows:
            raise ConfigError(
                f"basis_shape {h}x{w} is not a positive shape of the {rows} rows of M"
            )
    problem = build_experiment_problem(cfg, m_data)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    starts = [_trial_init(cfg, problem, t) for t in range(cfg.trials)]
    return t0, out, problem, labels, starts, [_point_hash(x) for x in starts]


def _reject_compare(cfg: ExperimentConfig, verb: str) -> None:
    """A ``compare`` block is read by ``run_compare`` alone; ``verb`` would
    run the solver block and leave the grid unread."""
    if cfg.compare is not None:
        raise ConfigError(
            f"the compare block is read only by 'bregopt compare', not by 'bregopt {verb}'"
        )


def run_experiment(cfg: ExperimentConfig):
    """Run one algorithm configuration over ``cfg.trials`` repetitions.

    Returns (summary dict, written paths).  The summary's ``status`` is
    'ok', 'partial' (at most half the trials failed) or 'failed'.  A
    ``compare`` block raises ConfigError before anything runs.
    """
    _reject_compare(cfg, "run")
    t0, out, problem, labels, starts, hashes = _prepare(cfg)
    results = _run_trials(cfg, problem, cfg.solver, starts)
    rows, padded = aggregate_traces(results, cfg.solver.max_epochs)
    summary = _summarize(cfg, cfg.solver, results, padded, hashes, labels)
    summary["audit_exact"] = problem.lemma_audits_exact
    summary["wall_seconds"] = time.perf_counter() - t0
    paths = _emit_outputs(cfg, out, cfg.name, results, rows, summary)
    return summary, paths


_DEFAULT_COMPARE = (
    {"algorithm": "bpg"},
    {"algorithm": "bpge"},
    {"algorithm": "bpsg", "estimator": "sgd"},
    {"algorithm": "bpsg", "estimator": "saga"},
    {"algorithm": "bpsg", "estimator": "sarah"},
    {"algorithm": "bpsge", "estimator": "sgd"},
    {"algorithm": "bpsge", "estimator": "saga"},
    {"algorithm": "bpsge", "estimator": "sarah"},
)


def _combo_tag(solver_cfg: SolverConfig) -> str:
    eff = solver_cfg.resolved()
    if eff.estimator == "full":
        return eff.algorithm
    return f"{eff.algorithm}_{eff.estimator}"


def run_compare(cfg: ExperimentConfig):
    """Run several algorithm variants on identical data and start points.

    Every variant sees the same per-trial start point and trial seeds (the
    summary records the start-point hashes, which are shared by construction).
    """
    t0, out, problem, labels, starts, hashes = _prepare(cfg)

    combos = cfg.compare if cfg.compare is not None else _DEFAULT_COMPARE
    all_paths = []
    combo_summaries = {}
    statuses = []
    for overrides in combos:
        solver_cfg = replace(cfg.solver, **overrides)
        tag = _combo_tag(solver_cfg)
        results = _run_trials(cfg, problem, solver_cfg, starts)
        rows, padded = aggregate_traces(results, solver_cfg.max_epochs)
        summary = _summarize(cfg, solver_cfg, results, padded, hashes, labels)
        statuses.append(summary["status"])
        combo_summaries[tag] = summary
        all_paths += _emit_outputs(
            cfg, out, f"{cfg.name}_{tag}", results, rows, summary
        )

    top = {
        "name": cfg.name,
        "kind": cfg.problem.kind,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "combos": combo_summaries,
        "shared_init_hashes": hashes,
        "status": (
            "ok"
            if all(s == "ok" for s in statuses)
            else "failed"
            if all(s == "failed" for s in statuses)
            else "partial"
        ),
        "wall_seconds": time.perf_counter() - t0,
    }
    p = out / f"compare_{cfg.name}.json"
    _write_json(p, top)
    all_paths.append(p)
    return top, all_paths


_AUDIT_FIELDS = ("lyapunov", "bregman_step", "stationarity", "gamma", "step_sq")
_audit_values = attrgetter(*_AUDIT_FIELDS)


def run_audit(cfg: ExperimentConfig):
    """Instrumented run checking the convergence theory on this instance.

    Executes all trials with per-iteration auditing and reports: Lyapunov
    monotonicity violations, the min-step rate bound, the stationarity
    witness trend, and (for variance-reduced estimators) the Monte-Carlo
    geometric-decay test of the tracker with the constant estimated from the
    visited iterates.  The report holds no accuracy, so no trial is
    scored by k-means.  A ``compare`` block raises ConfigError before
    anything runs.
    """
    _reject_compare(cfg, "audit")
    t0, out, problem, _, starts, _ = _prepare(cfg)

    solver_cfg = replace(
        cfg.solver, audit_per_iteration=True, keep_iterates=True
    )
    results = _run_trials(cfg, problem, solver_cfg, starts)
    ok = [r for r in results if not r.failed]

    report = {
        "name": cfg.name,
        "kind": cfg.problem.kind,
        "algorithm": solver_cfg.algorithm,
        "estimator": solver_cfg.resolved().estimator,
        "trials": cfg.trials,
        "failed_trials": len(results) - len(ok),
        "exact_hypotheses": problem.lemma_audits_exact,
        "status": _status(results),
    }

    if ok:
        # Each trial's audits, read once: one row of _AUDIT_FIELDS per step.
        rows = [
            np.array([_audit_values(a) for a in r.audits]).reshape(-1, 5)
            for r in ok
        ]
        # Lyapunov monotonicity across consecutive audited iterations.
        tol = 1e-9
        rises = [r[1:, 0] > r[:-1, 0] + tol * (1.0 + np.abs(r[:-1, 0])) for r in rows]
        report["lyapunov"] = {
            "checked": sum(rise.size for rise in rises),
            "violations": int(sum(rise.sum() for rise in rises)),
            "relative_tol": tol,
        }

        # The first min_len audits of every trial, as (trials, K, fields); an
        # across-trial mean reduces axis 0, as the mean of nested lists did.
        min_len = min(len(r) for r in rows)
        first = np.stack([r[:min_len] for r in rows])
        _, steps, stat, gamma, step_sq = np.moveaxis(first, -1, 0)
        if min_len > 0:
            # Rate bound on the across-trial mean Bregman step sequence.
            psi1 = float(np.mean([r.psi1 for r in ok]))
            rep = rate_check(steps.mean(axis=0), psi1, solver_cfg.epsilon)
            report["rate"] = {
                "passed": rep.passed,
                "checked_upto": rep.checked_upto,
                "worst_ratio": rep.worst_ratio,
                "psi1_mean": psi1,
            }
            wit = stat.mean(axis=0)
            report["stationarity"] = {
                "first": float(wit[0]),
                "last": float(wit[-1]),
                "min": float(wit.min()),
            }

        est_name = solver_cfg.resolved().estimator
        if est_name in ("saga", "sarah") and min_len >= 3:
            m1 = max(
                estimate_sample_lipschitz(problem, r.iterates) for r in ok
            )
            n = problem.n_samples
            b = effective_batch_size(solver_cfg.batch_size, n)
            if est_name == "saga":
                tau = b / (2.0 * n)
                v_gamma = (2.0 * b + 4.0 * n) * m1 * m1 / (b * b)
            else:
                tau = effective_restart_prob(None, n, b)
                v_gamma = 2.0 * m1 * m1
            records = list(zip(gamma, step_sq))
            decay = check_geometric_decay(records, tau, v_gamma)
            report["decay"] = {
                "violation_fraction": decay.violation_fraction,
                "checked": decay.checked,
                "passed": decay.passed,
                "tau": tau,
                "v_gamma": v_gamma,
                "m1_estimate": m1,
            }

    report["wall_seconds"] = time.perf_counter() - t0
    p = out / f"audit_{cfg.name}.json"
    _write_json(p, report)
    return report, [p]


def run_gen(cfg: ExperimentConfig, fmt: str = "csv"):
    """Materialize the configured synthetic instance to disk.

    Writes the matrix (csv or mm), the labels as a one-column CSV, and a
    small JSON with the generating parameters.
    """
    if cfg.problem.data.synthetic is None:
        raise ConfigError("gen requires problem.data.synthetic")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m_data, labels = load_experiment_data(cfg)
    ext = "csv" if fmt == "csv" else "mtx"
    m_path = out / f"{cfg.name}_M.{ext}"
    save_matrix(m_path, m_data)
    labels_path = out / f"{cfg.name}_labels.csv"
    save_matrix(labels_path, labels[:, None])
    meta_path = out / f"{cfg.name}_meta.json"
    _write_json(
        meta_path,
        {
            "seed": cfg.seed,
            "synthetic": asdict(cfg.problem.data.synthetic),
            "matrix": m_path.name,
            "labels": labels_path.name,
        },
    )
    return {"matrix": str(m_path), "labels": str(labels_path)}, [
        m_path,
        labels_path,
        meta_path,
    ]
