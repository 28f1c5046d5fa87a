"""Weighted instances, preference profiles, instance generators, and the output writer.

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

import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "GENERATOR_FAMILIES",
    "GeneratorSpec",
    "MalformedInstanceError",
    "PreferenceProfile",
    "WeightedInstance",
    "check_friendship",
    "derive_preferences",
    "generate",
    "load_instance",
    "profile_consistent",
    "save_instance",
    "validate_metric",
]


class MalformedInstanceError(ValueError):
    """Weight matrix is not a valid instance (asymmetric, negative, NaN, ...)."""


GENERATOR_FAMILIES = (
    "euclidean-uniform",
    "random-metric-closure",
    "clustered-gaussian",
)


def _integer(x, what: str) -> int:
    """x as a Python int, from a Python or numpy integer only (not 1.5, 1.0, "1" or true)."""
    if type(x) is bool or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _count(x, what: str, least: int = 0) -> int:
    """x as a Python int (``_integer``) that is at least ``least``."""
    if (x := _integer(x, what)) < least:
        raise ValueError(f"{what} must be {f'at least {least}' if least else 'nonnegative'}, "
                         f"got {x}")
    return x


def _typed(x, cls, what: str = ""):
    """x itself if it is a ``cls``, a class or a tuple of them, else ValueError naming ``what``
    (by default the class's name, lowercased: a solution's kind)."""
    if not isinstance(x, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ValueError(f"{what or names.lower()} must be a {names}, got {type(x).__name__}")
    return x


def _number(x, what: str):
    """x itself, a finite Python or numpy real (not "1", None, [1], true, inf, nan or 10**400)."""
    if type(x) is bool or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    if not abs(x) <= sys.float_info.max:  # inf, nan or an int past the largest float
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _holds_bool(x, a: np.ndarray) -> bool:
    """Whether nested lists ``x``, read by numpy as ``a``, hold a boolean: one type scan of
    ``x`` flattened ``a.ndim - 1`` times."""
    for _ in range(a.ndim - 1):
        x = chain.from_iterable(x)
    return bool({bool, np.bool_} & set(map(type, x)))


_HOLDS = {"iuf": "numbers only, not strings, booleans or nulls",
          "iu": "integers only, not floats, strings or booleans"}


def _table(x, what: str, kinds: str, error: type = MalformedInstanceError) -> np.ndarray:
    """x as an array of the numpy ``kinds`` "iuf" (numbers) or "iu" (integers), copied unless
    ``_Handed``; ``error`` for ragged rows or, in a nonempty table, an entry of another kind or
    a boolean (not "1", true or null)."""
    try:
        a = np.array(x, copy=type(x) is not _Handed)
    except ValueError:  # numpy's "inhomogeneous shape": ragged rows, or a row among numbers
        raise error(f"{what} must be a list of rows of one length") from None
    if a.size and (a.dtype.kind not in kinds or (  # an empty list reads as floats
            a.ndim and not isinstance(x, np.ndarray) and _holds_bool(x, a))):
        raise error(f"{what} must hold {_HOLDS[kinds]}")
    return a


def _as_weight_matrix(weights) -> np.ndarray:
    """Validate and normalize a raw weight matrix.

    Raises MalformedInstanceError for anything that is not a finite,
    symmetric, nonnegative square matrix with a zero diagonal.
    """
    w = _table(weights, "weight matrix", "iuf").astype(float, copy=False)
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

    ``metric`` is plain data, a bool checked at construction before the
    weights, not a promise enforced later; non-metric instances are
    first-class. ``random-metric-closure`` sets it on a matrix its closure
    loop measured at tol 0; the geometric families, on Euclidean
    distances, a metric that float rounding can break at tol 0
    (``validate_metric`` measures that).
    """

    weights: np.ndarray
    metric: bool = False
    points: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.metric, bool):
            raise MalformedInstanceError(f"instance 'metric' must be true or false, got {self.metric!r}")
        object.__setattr__(self, "weights", _as_weight_matrix(self.weights))
        if self.points is not None:
            pts = _table(self.points, "points", "iuf").astype(float, copy=False)
            if pts.ndim != 2 or pts.shape[0] != self.weights.shape[0]:
                raise MalformedInstanceError("points must be one row per node")
            if not np.isfinite(pts).all():
                raise MalformedInstanceError("points contain NaN or infinite entries")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def total_weight(self) -> float:
        """Sum of weights over unordered node pairs."""
        return float(self.weights.sum()) / 2.0

    def to_dict(self) -> dict:
        return {**self._fields(), "weights": self.weights.tolist()}

    def _fields(self) -> dict:
        """``to_dict`` with the weights left an ndarray, for ``render``."""
        d = {"n": self.n, "weights": self.weights, "metric": self.metric}
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
        inst = cls(d["weights"], d.get("metric", False), d.get("points"), dict(meta))
        n = d.get("n", inst.n)
        if isinstance(n, bool) or not isinstance(n, int):  # not 2.9, "2", true, [2] or null
            raise MalformedInstanceError(f"instance 'n' must be an integer, got {n!r}")
        if n != inst.n:
            raise MalformedInstanceError(
                f"declared n={d['n']} does not match weight matrix of size {inst.n}"
            )
        return inst


# rows whose cells owed to later rows are joined at once. A bucket is a list of str joins of 16
# float texts at most, about 370 B with the 49 B str header, under Python's 512-byte small-object
# limit: a bytearray grown by blocks lives in the C heap, whose fragmentation raised peak RSS 6.5%
_MIRROR_BLOCK = 16


class _Buckets(list):
    """Per row not yet reached, the ``str`` pieces of its text left of the diagonal so far, each
    cell followed by the separator, each piece a small object as ``_MIRROR_BLOCK`` cells at most;
    ``wait``: the current block's cells owed to rows past it."""

    def __init__(self, n: int):
        super().__init__([] for _ in range(n))
        self.wait = []


def _push(left: _Buckets, r: int, cells: list, sep: str) -> None:
    """Drop row r's bucket in ``left`` and give row r's ``cells`` (from its diagonal on) right of
    the diagonal, each followed by ``sep``, to the buckets they mirror into: at once inside r's
    block of ``_MIRROR_BLOCK`` rows, past it with the block's last row, one join per bucket."""
    left[r] = None
    end = min(r - r % _MIRROR_BLOCK + _MIRROR_BLOCK, len(left))
    for bucket, cell in zip(left[r + 1 : end], cells[1:]):
        bucket.append(cell + sep)
    left.wait.append(cells[end - r :])
    if r + 1 == end:
        for bucket, column in zip(left[end:], zip(*left.wait)):
            bucket.append(sep.join(column) + sep)
        left.wait.clear()


def _row_texts(table: np.ndarray, sep: str):
    """The rows of a ranking or a symmetric weight matrix as ``sep``-joined cell bytes, each
    distinct value formatted once: node ids from one table of n ``str``, a weight by one
    ``repr`` on or above the diagonal, whose ``str`` the mirror cell below reuses."""
    if table.dtype.kind != "f":
        ids = np.array([str(j) for j in range(len(table))], dtype=object)
        yield from (sep.join(ids[row].tolist()).encode() for row in table)
        return
    left = _Buckets(len(table))  # left[j]: row j's cells so far
    for i, row in enumerate(table):
        cells = list(map(repr, row[i:].tolist()))
        yield ("".join(left[i]) + sep.join(cells)).encode()
        _push(left, i, cells, sep)


def render(fmt: str, data, header: str, rows):
    """The byte chunks a CLI verb or ``save_instance`` writes, all checks done: the bytes of
    ``json.dumps(data, allow_nan=False) + "\\n"``, or of ``header`` and the ``csv.writer`` rows
    of ``rows``. JSON refuses non-finite floats (ValueError) instead of writing a bare Infinity
    or NaN. A CSV cell is ``str`` of its value (``repr`` for a float), quoted only when it holds
    a comma, a double quote or a newline. An ndarray ``rows``, also a value of ``data`` (gen's
    weights, prefs' ranking), is written one chunk per row by ``_row_texts``; every other value
    is encoded first, so a value json refuses raises before any chunk is written."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'csv'")
    if not isinstance(rows, np.ndarray):
        if fmt == "json":
            return [(json.dumps(data, allow_nan=False) + "\n").encode()]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return [f"{header}\n{buf.getvalue()}".encode()]
    if fmt == "csv":
        return chain([f"{header}\n".encode()], (r + b"\n" for r in _row_texts(rows, ",")))
    pairs = (json.dumps(k) + ": " + ("\0" if v is rows else json.dumps(v, allow_nan=False))
             for k, v in data.items())
    head, tail = ("{" + ", ".join(pairs) + "}\n").encode().split(b"\0")  # json writes no raw NUL
    lines = ((b", [" if i else b"[") + r + b"]" for i, r in enumerate(_row_texts(rows, ", ")))
    return chain([head, b"["], lines, [b"]", tail])


def save_instance(inst: WeightedInstance, path: str) -> None:
    """Write ``inst`` as the bytes ``gen --out`` writes (strict JSON: ValueError on NaN or inf)."""
    chunks = render("json", _typed(inst, WeightedInstance, "inst")._fields(), "", inst.weights)
    with open(_typed(path, (str, os.PathLike), "path"), "wb") as fh:
        fh.writelines(chunks)


_scan = json.JSONDecoder().scan_once  # json.loads's own C scanner: (value, end) at an index
_CHUNK = 1 << 18  # characters per read of an instance file
_HEAD = re.compile(r'\{(?:"n": (-?(?:0|[1-9][0-9]*)), )?"weights": \[')


def _gen_fields(read) -> dict:
    """``json.loads`` of the text ``read(k)`` returns ``k`` characters at a time, if it is in
    ``gen``'s layout: ``{"weights": [`` or ``{"n": <int>, "weights": [``, n rows of n floats
    (cells and rows each parted by ", "), ``]``, then ``}`` or ``, "`` and the other keys, read by
    one ``json.loads``. Each row is scanned from its diagonal on; its text left of the diagonal
    must be, character for character, cell r of each row above (one list of ``str`` pieces per
    row not yet read, dropped once it is read), whose numbers it copies. ValueError (or the
    scanner's StopIteration or RecursionError) at the first text that is not so."""
    buf = ""
    while "[" not in buf and (got := read(_CHUNK)):
        buf += got
    if (head := _HEAD.match(buf)) is None:
        raise ValueError
    d = {} if head[1] is None else {"n": int(head[1])}
    w, left, r, i = None, [[]], 0, head.end()  # row 0 owes no text
    del head  # it holds the first chunk
    while True:  # the row from its "[" and the two characters after its "]" are buffered
        while ((end := buf.find("]", i)) < 0 or end + 3 > len(buf)) and (
                got := read(max(_CHUNK, len(buf) - i))):  # doubles the text a long row spans
            buf, i = buf[i:] + got, 0
        if r == len(left) or buf[i : i + 1] != "[":
            raise ValueError
        mirror = "".join(left[r])
        k = i + 1 + len(mirror)
        if end < k or buf[i + 1 : k] != mirror:
            raise ValueError
        text = buf[k:end]
        row, cells = _scan(f"[{text}]", 0)[0], text.split(", ")
        n = len(row) if w is None else len(w)
        if not row or r + len(row) != n or set(map(type, row)) != {float} or len(cells) != len(row):
            raise ValueError
        if w is None:
            w, left = np.empty((n, n)), _Buckets(n)
        w[r, r:], w[r, :r] = row, w[:r, r]
        _push(left, r, cells, ", ")
        r, i = r + 1, end + 3
        if buf[end + 1 : i] != ", ":
            break
    if r != n or buf[end + 1 : end + 2] != "]" or not (
            rest := buf[end + 2 :] + read()).startswith(("}", ', "')):  # the tail, read whole
        raise ValueError
    return {**d, "weights": w.view(_Handed)} | json.loads("{" + rest.removeprefix(", "))


def load_instance(path: str) -> WeightedInstance:
    """Load an instance JSON file, re-validating the matrix. A file in ``gen``'s layout is read
    by ``_gen_fields``, a chunk and a weight row at a time (a pipe, read whole first); any other
    text is read again whole by ``json.loads``, so every file loads or fails as it did through
    ``json.load``, save one nested too deeply for it: MalformedInstanceError."""
    with open(_typed(path, (str, os.PathLike), "path"), "r", encoding="utf-8") as fh:
        src = fh if fh.seekable() else io.StringIO(fh.read())
        try:  # MemoryError: a long first row sizes a matrix numpy cannot allocate
            d = _gen_fields(src.read)
        except (ValueError, StopIteration, RecursionError, MemoryError):
            d = None
        if d is None:  # out of the handler, whose traceback holds the half-read matrix
            src.seek(0)
            try:
                d = json.loads(src.read())
            except RecursionError:
                raise MalformedInstanceError("an instance file nests too deeply to read") from None
    return WeightedInstance.from_dict(d)


def _every_pivot_block(w: np.ndarray, holds) -> bool:
    """Whether ``holds(w[:, None], via)`` is all true for ``via`` each block of the two-hop sums
    w[x, z] + w[z, y] (indexed [x, z, y]) over b = 2^16 // n^2 pivots z, or one from n=182: one
    block alive at a time, so memory stays O(n^2), never the n^3 tensor."""
    b = max(1, (1 << 16) // w.size)
    return all(bool(holds(w[:, None], w[:, z : z + b, None] + w[None, z : z + b]).all())
               for z in range(0, len(w), b))


def validate_metric(inst: WeightedInstance, tol: float = 0.0) -> bool:
    """Check w(x,y) <= w(x,z) + w(z,y) + tol over all ordered triples.

    tol=0 is exact, so float rounding can fail weights computed from
    collinear or nearly collinear points.
    """
    if _number(tol, "tol") < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    # z in {x, y} cannot mask a violation
    w = _typed(inst, WeightedInstance, "inst").weights
    return _every_pivot_block(w, lambda w, via: w <= np.add(via, tol, out=via))


def check_friendship(inst: WeightedInstance, alpha: float) -> bool:
    """Check w(i,k) >= alpha * (w(i,j) + w(j,k)) for all distinct triples.

    alpha must lie in [0, 1/2]; 1/2 is the largest value any instance with
    a positive weight can satisfy. alpha >= 1/3 forces the triangle
    inequality (see the friendship tests).
    """
    if not 0.0 <= _number(alpha, "alpha") <= 0.5:
        raise ValueError(f"alpha must be in [0, 0.5], got {alpha}")
    # j in {i, k} gives w(i,k) itself, harmless as alpha <= 1/2; the diagonal i == k is exempt
    diagonal = np.eye(_typed(inst, WeightedInstance, "inst").n, dtype=bool)[:, None]
    return _every_pivot_block(
        inst.weights, lambda w, via: (w >= np.multiply(via, alpha, out=via)) | diagonal)


class _Handed(np.ndarray):
    """An array its builder hands uncopied to ``PreferenceProfile`` (the int32 ranking table)
    or ``WeightedInstance`` (a weight matrix fresh from ``load_instance`` or ``generate``)."""


def _inverse(ranking: np.ndarray) -> np.ndarray:
    """The first rows of an (n, n-1) ranking inverted, int32: j's position in row i, n-1 if
    i == j, -1 if missed."""
    rows, n = len(ranking), ranking.shape[1] + 1
    rank = np.full((rows, n), -1, dtype=np.int32)
    np.fill_diagonal(rank, n - 1)
    rank[np.arange(rows)[:, None], ranking] = np.arange(n - 1, dtype=np.int32)
    return rank


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """Per-node strict rankings over the other nodes.

    ``ranking[i]`` lists the other nodes in descending preference (read-only
    int32, (n, n-1)). This is the only input the ordinal algorithms receive.
    Profiles compare equal when their rankings do; they are not hashable.
    """

    ranking: np.ndarray

    def __post_init__(self):
        ranking = _table(self.ranking, "ranking", "iu", ValueError)
        if ranking.ndim == 0:
            raise ValueError("ranking must be a list of rows")
        n = len(ranking)
        if ranking.ndim != 2 or ranking.shape[1] != n - 1:
            raise ValueError(f"ranking must have n - 1 = {n - 1} entries in each of its {n} rows")
        first = n  # the first row holding an id out of range, or n
        if ranking.size and (ranking.min() < 0 or ranking.max() >= n):
            first = ((ranking < 0) | (ranking >= n)).any(axis=1).argmax()
        ranking = ranking.astype(np.int32, copy=False)
        # the first row before it whose inverse misses a node (a -1), else ``first`` itself
        if (row := np.append((_inverse(ranking[:first]) < 0).any(axis=1), True).argmax()) < n:
            raise ValueError(f"row {row} is not a permutation of the other {n - 1} nodes")
        ranking.setflags(write=False)
        object.__setattr__(self, "ranking", ranking)

    def __eq__(self, other) -> bool:
        return isinstance(other, PreferenceProfile) and np.array_equal(self.ranking, other.ranking)

    @property
    def n(self) -> int:
        return len(self.ranking)

    def position(self, i: int, j: int) -> int:
        """Rank of j in i's list, read from row i; 0 is the most preferred."""
        if (i := _integer(i, "node id")) == (j := _integer(j, "node id")) or not (
                0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"node {j} is not in node {i}'s list")
        return int((self.ranking[i] == j).argmax())

    def prefers(self, i: int, j: int, k: int) -> bool:
        """True when i ranks j strictly above k."""
        return self.position(i, j) < self.position(i, k)

    def to_dict(self) -> dict:
        return {**self._fields(), "ranking": self.ranking.tolist()}

    def _fields(self) -> dict:
        return {"n": self.n, "ranking": self.ranking}

    @classmethod
    def from_dict(cls, d: dict) -> "PreferenceProfile":
        if "ranking" not in _typed(d, dict, "profile dict"):
            raise ValueError("profile dict has no 'ranking' field")
        return cls(d["ranking"])


_BLOCK = 64  # rows per argsort in derive_preferences, per scratch fill in _euclidean_weights


def derive_preferences(inst: WeightedInstance) -> PreferenceProfile:
    """Rank every node's partners by descending weight, ties by index.

    Rows are ranked ``_BLOCK`` at a time into the int32 table by an argsort of -w, the +inf
    diagonal last and dropped: one block stably, more by numpy's faster default argsort and
    again stably for each row whose sorted keys hold a tie, so ties keep index order.
    """
    w, n = _typed(inst, WeightedInstance, "inst").weights, inst.n
    ranking = np.empty((n, n - 1), dtype=np.int32)
    for a in range(0, n, _BLOCK):
        key = -w[a : a + _BLOCK]
        np.fill_diagonal(key[:, a:], np.inf)
        order = np.argsort(key, axis=1, kind="stable" if n <= _BLOCK else None)
        if n > _BLOCK:
            tied = (np.diff(np.sort(key, axis=1), axis=1) == 0).any(axis=1)
            order[tied] = np.argsort(key[tied], axis=1, kind="stable")
        ranking[a : a + _BLOCK] = order[:, :-1]
    return PreferenceProfile(ranking.view(_Handed))


def profile_consistent(profile: PreferenceProfile, inst: WeightedInstance) -> bool:
    """True when the profile could have been induced by the weights.

    i ranking j above k requires w(i,j) >= w(i,k); ties may be ordered
    either way, which is why this accepts more profiles than
    ``derive_preferences`` emits.
    """
    if _typed(profile, PreferenceProfile, "profile").n != _typed(inst, WeightedInstance, "inst").n:
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
        object.__setattr__(self, "n", _count(self.n, "n", 2))
        for name, read in (("dimension", _integer), ("seed", _count), ("clusters", _integer)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if self.family in ("euclidean-uniform", "clustered-gaussian") and self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if self.family == "clustered-gaussian" and self.clusters < 1:
            raise ValueError(f"clusters must be positive, got {self.clusters}")


def _euclidean_weights(points: np.ndarray) -> np.ndarray:
    # in place, _BLOCK rows and one coordinate at a time: for d < 8 the bits match the tensor sum
    n = len(points)
    w, sq = np.zeros((n, n)), np.empty((min(n, _BLOCK), n))
    for a in range(0, n, _BLOCK):
        block, out = w[a : a + _BLOCK], sq[: n - a]
        for x in points.T:
            block += np.square(np.subtract.outer(x[a : a + _BLOCK], x, out=out), out=out)
    return np.sqrt(w, out=w)  # x - x is exactly 0, so the diagonal is too


def generate(spec: GeneratorSpec) -> WeightedInstance:
    """Build the instance a spec describes. Same spec, same instance."""
    rng = np.random.default_rng(_typed(spec, GeneratorSpec, "spec").seed)
    meta = {"family": spec.family, "seed": spec.seed}

    if spec.family == "random-metric-closure":
        raw = rng.random((spec.n, spec.n))
        raw = np.triu(raw, 1)
        w = raw + raw.T
        # the min-plus closure: Floyd-Warshall sweeps in place until the exact triangle check
        # passes. One sweep can leave float violations; a sweep changes nothing exactly when the
        # check passes, so this stops at the float fixpoint
        while not _every_pivot_block(w, np.less_equal):
            for z in range(spec.n):
                np.minimum(w, w[:, z : z + 1] + w[z : z + 1, :], out=w)
        return WeightedInstance(w.view(_Handed), metric=True, meta=meta)

    if spec.family == "euclidean-uniform":
        pts = rng.random((spec.n, spec.dimension))
    else:  # clustered-gaussian
        centers = rng.random((spec.clusters, spec.dimension))
        assign = rng.integers(0, spec.clusters, size=spec.n)
        pts = centers[assign] + rng.normal(0.0, 0.08, size=(spec.n, spec.dimension))
    return WeightedInstance(_euclidean_weights(pts).view(_Handed), metric=True, points=pts,
                            meta=meta)
