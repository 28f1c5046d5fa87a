"""Weighted instances, preference profiles, and instance generators.

The package keeps a hard wall between two views of an instance:

* ``WeightedInstance`` carries the hidden symmetric weight matrix. Only
  generators, oracles, and evaluation helpers touch it.
* ``PreferenceProfile`` carries the per-node rankings induced by the
  weights. The approximation algorithms in :mod:`ordmatch.core` accept
  profiles only, so they cannot peek at cardinal information.

``derive_preferences`` is the single bridge from weights to rankings:
descending weight, ties broken by ascending node index.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import getitem

import numpy as np

from .errors import MalformedInstanceError

GENERATOR_FAMILIES = (
    "euclidean-uniform",
    "random-metric-closure",
    "clustered-gaussian",
)


def _holds_bool(x, a: np.ndarray) -> bool:
    """Whether nested lists ``x``, read by numpy as ``a``, hold a boolean: only the
    entries numpy read as 0 or 1 (a weight matrix's diagonal) can be one."""
    found = (reduce(getitem, index, x) for index in np.argwhere((a == 0) | (a == 1)).tolist())
    return bool({bool, np.bool_} & set(map(type, found)))


def _float_array(x, what: str) -> np.ndarray:
    """x as floats, from numbers only (not "1", true or null)."""
    a = np.array(x)
    if a.dtype.kind not in "iuf" or (
        a.ndim and not isinstance(x, np.ndarray) and _holds_bool(x, a)
    ):
        np.array(x, dtype=float)  # no float at all ("abc", an object): numpy's own error
        raise MalformedInstanceError(f"{what} must hold numbers only, not strings, booleans or nulls")
    return a.astype(float, copy=False)


def _as_weight_matrix(weights) -> np.ndarray:
    """Validate and normalize a raw weight matrix.

    Raises MalformedInstanceError for anything that is not a finite,
    symmetric, nonnegative square matrix with a zero diagonal.
    """
    w = _float_array(weights, "weight matrix")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MalformedInstanceError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise MalformedInstanceError("instance needs at least 2 nodes")
    if not np.isfinite(w).all():
        raise MalformedInstanceError("weight matrix contains NaN or infinite entries")
    if (w < 0).any():
        raise MalformedInstanceError("weight matrix contains negative entries")
    if not np.array_equal(w, w.T):
        raise MalformedInstanceError("weight matrix is not symmetric")
    if np.diagonal(w).any():
        raise MalformedInstanceError("weight matrix diagonal must be zero")
    w += 0.0  # -0.0 becomes 0.0, so a weight and its mirror are the same bits and text
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class WeightedInstance:
    """Hidden weights on the complete graph over nodes ``0..n-1``.

    ``metric`` records whether the matrix passed a triangle-inequality
    check at construction time; non-metric instances are first-class and
    the flag is plain data, not a promise enforced later.
    """

    weights: np.ndarray
    metric: bool = False
    points: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weight_matrix(self.weights))
        if self.points is not None:
            pts = _float_array(self.points, "points")
            if pts.ndim != 2 or pts.shape[0] != self.weights.shape[0]:
                raise MalformedInstanceError("points must be one row per node")
            if not np.isfinite(pts).all():
                raise MalformedInstanceError("points contain NaN or infinite entries")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def weight(self, u: int, v: int) -> float:
        return float(self.weights[u, v])

    def total_weight(self) -> float:
        """Sum of weights over unordered node pairs."""
        return float(self.weights.sum()) / 2.0

    def to_dict(self) -> dict:
        return {**self._fields(), "weights": self.weights.tolist()}

    def _fields(self) -> dict:
        """``to_dict`` with the weights left an ndarray, for ``_table_bytes``."""
        d = {"n": self.n, "weights": self.weights, "metric": bool(self.metric)}
        if self.points is not None:
            d["points"] = self.points.tolist()
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WeightedInstance":
        if not isinstance(d, dict):
            raise MalformedInstanceError(f"instance must be a JSON object, got {type(d).__name__}")
        if "weights" not in d:
            raise MalformedInstanceError("instance dict has no 'weights' field")
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise MalformedInstanceError(f"instance 'meta' must be an object, got {type(meta).__name__}")
        metric = d.get("metric", False)
        if not isinstance(metric, bool):
            raise MalformedInstanceError(f"instance 'metric' must be true or false, got {metric!r}")
        try:
            inst = cls(d["weights"], metric, d.get("points"), dict(meta))
            n = d.get("n", inst.n)
            declared = int(n)
        except TypeError as exc:  # a field of the wrong JSON type, e.g. weights as an object
            raise MalformedInstanceError(f"instance field has the wrong type: {exc}") from None
        if isinstance(n, bool) or not isinstance(n, int):  # int() took 2.9, "2" and true
            raise MalformedInstanceError(f"instance 'n' must be an integer, got {n!r}")
        if declared != inst.n:
            raise MalformedInstanceError(
                f"declared n={d['n']} does not match weight matrix of size {inst.n}"
            )
        return inst


def _row_texts(table: np.ndarray, sep: str):
    """The rows of a ranking or a symmetric weight matrix as ``sep``-joined cell texts, each
    distinct value formatted once: node ids from one table of n ``str``, a weight by one
    ``repr`` on or above the diagonal, whose text the mirror cell below reuses."""
    if table.dtype.kind != "f":
        ids = np.array([str(j) for j in range(len(table))], dtype=object)
        yield from (sep.join(ids[row].tolist()) for row in table)
        return
    pending = []  # pending[j]: row j's texts not yet mirrored, reversed; at row i pop() is (j, i)
    for i, row in enumerate(table):
        texts = list(map(repr, row[i:].tolist()))
        yield sep.join([*map(list.pop, pending), *texts])
        pending.append(texts[:0:-1])


def _table_chunks(fmt: str, data: dict, header: str, table: np.ndarray):
    """The bytes of ``json.dumps(data, allow_nan=False) + "\\n"``, or of ``header`` and the
    ``csv.writer`` rows of ``table`` (a value of ``data``), one chunk per table row; every
    other value is encoded first, so a value json refuses raises before any chunk is written."""
    rows = _row_texts(table, "," if fmt == "csv" else ", ")
    if fmt == "csv":
        return chain([f"{header}\n".encode()], (f"{r}\n".encode() for r in rows))
    pairs = (json.dumps(k) + ": " + ("\0" if v is table else json.dumps(v, allow_nan=False))
             for k, v in data.items())
    head, tail = ("{" + ", ".join(pairs) + "}\n").encode().split(b"\0")  # json writes no raw NUL
    rows = (f"{', ' if i else ''}[{r}]".encode() for i, r in enumerate(rows))
    return chain([head, b"["], rows, [b"]", tail])


def save_instance(inst: WeightedInstance, path: str) -> None:
    """Write ``inst`` as the bytes ``gen --out`` writes (strict JSON: ValueError on NaN or inf)."""
    chunks = _table_chunks("json", inst._fields(), "", inst.weights)
    with open(path, "wb") as fh:
        fh.writelines(chunks)


_scan = json.JSONDecoder().scan_once  # json.loads's own C scanner: (value, end) at an index
_space = json.decoder.WHITESPACE.match
_CHUNK = 1 << 18  # characters per read of an instance file


class _Chunks:
    """The JSON text ``read(k)`` returns ``k`` characters at a time, as tokens. A value counts
    once three characters after it are buffered (a number cut before "e+1" would read short)
    or the text has ended; one that fails to scan is scanned again with more text."""

    def __init__(self, read):
        self.read, self.buf, self.i, self.end = read, "", 0, False

    def _more(self, i: int) -> None:
        got = self.read(max(_CHUNK, len(self.buf) - i))  # doubles the text a long value spans
        self.buf, self.i, self.end = self.buf[i:] + got, 0, not got

    def char(self) -> str:
        """The next character that is not JSON whitespace, consumed; "" at the end."""
        while (i := _space(self.buf, self.i).end()) == len(self.buf) and not self.end:
            self._more(i)
        self.i = i + 1
        return self.buf[i : i + 1]

    def value(self):
        """The next JSON value (ValueError or StopIteration if there is none)."""
        while True:
            self.i = _space(self.buf, self.i).end()
            try:
                v, end = _scan(self.buf, self.i)
                if len(self.buf) - end >= 3 or self.end:
                    self.i = end
                    return v
            except (ValueError, StopIteration):
                if self.end:
                    raise
            self._more(self.i)


def _weight_rows(src: _Chunks) -> np.ndarray:
    """The JSON array of n arrays of n numbers next in ``src``, read one row at a time into an
    (n, n) float matrix. ValueError or StopIteration for any other text, or a row holding a
    boolean, a string, null or an int that float() may round."""
    w, r, c = None, 0, src.char()
    while c == ("," if r else "["):
        row = src.value()  # StopIteration at "]": [] or a trailing comma
        if type(row) is not list:
            raise ValueError
        w = np.empty((len(row), len(row))) if w is None else w
        types = set(map(type, row))  # one scan per row: a 0 or 1 costs what a float does
        if r == len(w) or len(row) != len(w) or not types <= {float, int}:
            raise ValueError
        w[r] = row  # OverflowError for an int past float range
        if int in types and not (np.abs(w[r]) < 2.0**53).all():
            raise ValueError
        r, c = r + 1, src.char()
    if c != "]" or w is None or r != len(w):
        raise ValueError
    return w


def _instance_fields(src: _Chunks) -> dict:
    """``json.loads`` of the JSON object in ``src``, each ``"weights"`` value read by
    ``_weight_rows``; ValueError or StopIteration for any text it does not take."""
    d, c = {}, src.char()
    while c == ("," if d else "{"):
        key = src.value()  # StopIteration at "}": {} or a trailing comma
        if type(key) is not str or src.char() != ":":
            raise ValueError
        d[key] = _weight_rows(src) if key == "weights" else src.value()
        c = src.char()
    if c != "}" or not d or src.char():
        raise ValueError
    return d


def load_instance(path: str) -> WeightedInstance:
    """Load an instance JSON file, re-validating the matrix. ``_Chunks`` reads it a chunk and the
    weights a row at a time (a pipe, read whole first); text it does not take is read again by
    ``json.loads``, so every file loads or fails as it did through ``json.load``."""
    with open(path, "r", encoding="utf-8") as fh:
        src = fh if fh.seekable() else io.StringIO(fh.read())
        try:
            d = _instance_fields(_Chunks(src.read))
        except (ValueError, OverflowError, StopIteration, RecursionError):
            src.seek(0)
            d = json.loads(src.read())
    return WeightedInstance.from_dict(d)


def validate_metric(inst: WeightedInstance, tol: float = 0.0) -> bool:
    """Check w(x,y) <= w(x,z) + w(z,y) + tol over all ordered triples.

    tol=0 is exact, so float rounding can fail weights computed from
    collinear or nearly collinear points; closure-generated float matrices
    are validated at 1e-9 * max(w) by their generator.
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    w = inst.weights
    # one pivot z at a time keeps memory O(n^2); z in {x, y} cannot mask a violation
    return all(bool((w <= w[:, z : z + 1] + w[z : z + 1, :] + tol).all()) for z in range(inst.n))


def check_friendship(inst: WeightedInstance, alpha: float) -> bool:
    """Check w(i,k) >= alpha * (w(i,j) + w(j,k)) for all distinct triples.

    alpha must lie in [0, 1/2]; 1/2 is the largest value any instance with
    a positive weight can satisfy. alpha >= 1/3 forces the triangle
    inequality (see the friendship tests).
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 0.5], got {alpha}")
    w = inst.weights
    # one pivot j at a time keeps memory O(n^2); j in {i, k} gives w(i,k)
    # itself, harmless as alpha <= 1/2; the diagonal i == k is exempt
    diagonal = np.eye(inst.n, dtype=bool)
    two_hop = (w[:, j : j + 1] + w[j : j + 1, :] for j in range(inst.n))
    return all(bool(((w >= alpha * via) | diagonal).all()) for via in two_hop)


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """Per-node strict rankings over the other nodes.

    ``ranking[i]`` lists the other nodes in descending preference (read-only
    int32, (n, n-1)); ``rank[i, j]`` is j's position in i's list, n-1 for
    j == i. This is the only input the ordinal algorithms receive. Profiles
    compare equal when their rankings do; they are not hashable.
    """

    ranking: np.ndarray
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ranking = np.array(self.ranking)
        if ranking.size and (ranking.dtype.kind not in "iu" or (
            not isinstance(self.ranking, np.ndarray) and _holds_bool(self.ranking, ranking)
        )):  # not 1.7, 1.0, "1" or true
            raise ValueError("ranking must hold integers only, not floats, strings or booleans")
        n = len(ranking)
        if ranking.ndim != 2 or ranking.shape[1] != n - 1:
            raise ValueError(f"ranking must have n - 1 = {n - 1} entries in each of its {n} rows")
        # an id out of range makes its row its own node; a bad row scattered into -1s leaves one
        if ranking.size and (ranking.min() < 0 or ranking.max() >= n):
            outside = ((ranking < 0) | (ranking >= n)).any(axis=1, keepdims=True)
            ranking = np.where(outside, np.arange(n)[:, None], ranking)
        ranking = ranking.astype(np.int32, copy=False)
        rank = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(rank, n - 1)
        rank[np.arange(n)[:, None], ranking] = np.arange(n - 1, dtype=np.int32)
        if (missed := rank < 0).any():
            raise ValueError(f"row {missed.argmax() // n} is not a permutation of the other {n - 1} nodes")
        for name, table in (("ranking", ranking), ("rank", rank)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def __eq__(self, other) -> bool:
        return isinstance(other, PreferenceProfile) and np.array_equal(self.ranking, other.ranking)

    @property
    def n(self) -> int:
        return len(self.ranking)

    def position(self, i: int, j: int) -> int:
        """Rank of j in i's list; 0 is the most preferred."""
        if i == j or not 0 <= j < self.n:
            raise ValueError(f"node {j} is not in node {i}'s list")
        return int(self.rank[i, j])

    def prefers(self, i: int, j: int, k: int) -> bool:
        """True when i ranks j strictly above k."""
        return self.position(i, j) < self.position(i, k)

    def to_dict(self) -> dict:
        return {**self._fields(), "ranking": self.ranking.tolist()}

    def _fields(self) -> dict:
        return {"n": self.n, "ranking": self.ranking}

    @classmethod
    def from_dict(cls, d: dict) -> "PreferenceProfile":
        return cls(d["ranking"])


_BLOCK = 64  # rows per argsort in derive_preferences


def derive_preferences(inst: WeightedInstance) -> PreferenceProfile:
    """Rank every node's partners by descending weight, ties by index.

    Rows are ranked ``_BLOCK`` at a time into the int32 table by an argsort of -w, the +inf
    diagonal last and dropped: one block stably, more by numpy's faster default argsort and
    again stably for each row whose sorted keys hold a tie, so ties keep index order.
    """
    w, n = inst.weights, inst.n
    ranking = np.empty((n, n - 1), dtype=np.int32)
    for a in range(0, n, _BLOCK):
        key = -w[a : a + _BLOCK]
        np.fill_diagonal(key[:, a:], np.inf)
        order = np.argsort(key, axis=1, kind="stable" if n <= _BLOCK else None)
        if n > _BLOCK:
            tied = (np.diff(np.sort(key, axis=1), axis=1) == 0).any(axis=1)
            order[tied] = np.argsort(key[tied], axis=1, kind="stable")
        ranking[a : a + _BLOCK] = order[:, :-1]
    return PreferenceProfile(ranking)


def profile_consistent(profile: PreferenceProfile, inst: WeightedInstance) -> bool:
    """True when the profile could have been induced by the weights.

    i ranking j above k requires w(i,j) >= w(i,k); ties may be ordered
    either way, which is why this accepts more profiles than
    ``derive_preferences`` emits.
    """
    if profile.n != inst.n:
        return False
    ranked = np.take_along_axis(inst.weights, profile.ranking, axis=1)
    return bool((ranked[:, :-1] >= ranked[:, 1:]).all())


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible recipe for a random instance.

    family: one of GENERATOR_FAMILIES. ``dimension`` and ``clusters``
    matter only for the geometric families.
    """

    family: str
    n: int
    dimension: int = 2
    seed: int = 0
    clusters: int = 3

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {GENERATOR_FAMILIES}"
            )
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.family in ("euclidean-uniform", "clustered-gaussian") and self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if self.family == "clustered-gaussian" and self.clusters < 1:
            raise ValueError(f"clusters must be positive, got {self.clusters}")


def _euclidean_weights(points: np.ndarray) -> np.ndarray:
    # in place, one coordinate at a time: for d < 8 the bits match summing the (n, n, d) tensor
    w, sq = np.zeros((len(points),) * 2), np.empty((len(points),) * 2)
    for x in points.T:
        w += np.square(np.subtract.outer(x, x, out=sq), out=sq)
    return np.sqrt(w, out=w)  # x - x is exactly 0, so the diagonal is too


def _min_plus_closure(w: np.ndarray) -> np.ndarray:
    """Shortest-path closure of ``w``, in place, iterated to a float fixpoint.

    A single Floyd-Warshall sweep can leave tiny float violations when a
    later relaxation lowers an entry an earlier check depended on, so
    sweep until nothing changes.
    """
    while True:
        before = w.copy()
        for z in range(w.shape[0]):
            np.minimum(w, w[:, z : z + 1] + w[z : z + 1, :], out=w)
        if np.array_equal(before, w):
            return w


def generate(spec: GeneratorSpec) -> WeightedInstance:
    """Build the instance a spec describes. Same spec, same instance."""
    rng = np.random.default_rng(spec.seed)
    meta = {"family": spec.family, "seed": spec.seed}

    if spec.family == "euclidean-uniform":
        pts = rng.random((spec.n, spec.dimension))
        return WeightedInstance(_euclidean_weights(pts), metric=True, points=pts, meta=meta)

    if spec.family == "clustered-gaussian":
        centers = rng.random((spec.clusters, spec.dimension))
        assign = rng.integers(0, spec.clusters, size=spec.n)
        pts = centers[assign] + rng.normal(0.0, 0.08, size=(spec.n, spec.dimension))
        return WeightedInstance(_euclidean_weights(pts), metric=True, points=pts, meta=meta)

    # random-metric-closure
    raw = rng.random((spec.n, spec.n))
    raw = np.triu(raw, 1)
    raw = raw + raw.T
    w = _min_plus_closure(raw)
    inst = WeightedInstance(w, metric=True, meta=meta)
    tol = 1e-9 * float(w.max()) if w.max() > 0 else 0.0
    if not validate_metric(inst, tol):
        raise AssertionError("closure generator produced a non-metric matrix")
    return inst
