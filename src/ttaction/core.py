"""Tensors given by their action, tensor-train containers, rounding, and serialization.

A d-th order tensor is used here only through its *action*: saturate every
mode but one with a vector and return the remaining fiber.  For d = 2 this is
the familiar matrix-vector product.  Mode numbers in the public interface are
1-based; storage is plain 0-based numpy.

A dense array enters only through its action; no train is ever densified.
"""

from __future__ import annotations

import base64
import json
import struct
import warnings

import numpy as np
import scipy.linalg

from .errors import (
    FormatError,
    NonFiniteActionError,
    RankClampWarning,
    ShapeError,
    VersionError,
    ZeroNormError,
)

_MAGIC = b"TTAC"
_FORMAT_VERSION = 1
_JSON_FORMAT = "ttaction-tt"


def _check_dims(dims):
    """Mode sizes as a tuple of ints: at least 2 modes, each of positive size."""
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ShapeError(f"need at least 2 modes of positive size, got {dims}")
    return dims


def _check_free_mode(free_mode, order):
    if not 1 <= free_mode <= order:
        raise ShapeError(f"free_mode must be in 1..{order}, got {free_mode}")


def _check_vectors(dims, free_mode, vectors):
    """Coerce the d-1 saturating vectors and verify their lengths."""
    other = [n for k, n in enumerate(dims, start=1) if k != free_mode]
    if len(vectors) != len(other):
        raise ShapeError(
            f"expected {len(other)} vectors for a {len(dims)}-mode tensor "
            f"with free mode {free_mode}, got {len(vectors)}"
        )
    out = []
    for n, v in zip(other, vectors):
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise ShapeError(f"saturating vector has shape {v.shape}, expected ({n},)")
        out.append(v)
    return out


def dense_action(tensor, free_mode, vectors):
    """Action of a dense tensor: contract every mode but ``free_mode``.

    Parameters
    ----------
    tensor : ndarray
        Dense array of order >= 2.
    free_mode : int
        1-based index of the mode left free.
    vectors : sequence of ndarray
        One vector per saturated mode, in increasing mode order.

    Returns
    -------
    ndarray
        The free-mode fiber, shape ``(tensor.shape[free_mode - 1],)``.
    """
    tensor = np.asarray(tensor, dtype=float)
    d = tensor.ndim
    _check_free_mode(free_mode, d)
    vectors = _check_vectors(tensor.shape, free_mode, vectors)
    axes = [k for k in range(d) if k != free_mode - 1]
    out = tensor
    # contract highest axis first so the remaining axis numbers stay valid
    for ax, v in sorted(zip(axes, vectors), reverse=True, key=lambda t: t[0]):
        out = np.tensordot(out, v, axes=([ax], [0]))
    return out


class ActionOracle:
    """A tensor exposed only through its action, with a call counter.

    Parameters
    ----------
    dims : sequence of int
        Mode sizes (N_1, ..., N_d), d >= 2.
    apply_fn : callable
        ``apply_fn(free_mode, vectors) -> ndarray`` implementing the action.
        ``vectors`` arrive validated and in increasing mode order.

    Notes
    -----
    Serves one caller at a time, as a numpy ``Generator`` does: the counter
    is a plain integer with no synchronisation.
    """

    def __init__(self, dims, apply_fn):
        self.dims = _check_dims(dims)
        self._apply = apply_fn
        self._count = 0

    @property
    def order(self):
        return len(self.dims)

    @property
    def action_count(self):
        """Number of actions performed since construction or the last reset."""
        return self._count

    def reset_count(self):
        self._count = 0

    def clear_cache(self):
        """Drop work cached between actions; this base oracle caches none.

        Subclasses that cache override it.  Callers clear before each run
        that must not reuse an earlier run's work, such as every start of a
        power iteration.  Clearing must not change what an action returns.
        """

    def action(self, free_mode, vectors):
        """Saturate all modes but ``free_mode`` (1-based) and return the fiber.

        Raises :class:`~ttaction.errors.NonFiniteActionError` when the fiber
        holds a NaN or an infinity.
        """
        _check_free_mode(free_mode, self.order)
        vectors = _check_vectors(self.dims, free_mode, vectors)
        self._count += 1
        out = np.asarray(self._apply(free_mode, vectors), dtype=float)
        if out.shape != (self.dims[free_mode - 1],):
            raise ShapeError(
                f"action returned shape {out.shape}, expected "
                f"({self.dims[free_mode - 1]},)"
            )
        if not np.isfinite(out).all():
            raise NonFiniteActionError(
                f"action with free mode {free_mode} returned non-finite entries"
            )
        return out


def oracle_from_dense(tensor):
    """Wrap a dense array as an :class:`ActionOracle`."""
    tensor = np.asarray(tensor, dtype=float)
    return ActionOracle(tensor.shape, lambda k, vs: dense_action(tensor, k, vs))


def oracle_from_tt(tt):
    """Wrap a :class:`TensorTrain` as an :class:`ActionOracle`."""
    # the oracle has validated the vectors already
    return ActionOracle(tt.dims, lambda k, vs: _contract(tt.cores, k - 1, vs))


class TensorTrain:
    """Tensor train with cores stored as (left_rank, mode_size, right_rank).

    Boundary ranks are fixed to 1, so a d-mode train is the core chain
    (1, N_1, r_1), (r_1, N_2, r_2), ..., (r_{d-1}, N_d, 1).  The represented
    entry is the product of the selected core slices:
    ``T[i_1, ..., i_d] = C_1[:, i_1, :] @ C_2[:, i_2, :] @ ... @ C_d[:, i_d, :]``.
    """

    def __init__(self, cores):
        cores = [np.ascontiguousarray(c, dtype=float) for c in cores]
        if len(cores) < 2:
            raise ShapeError("a tensor train needs at least 2 cores")
        for k, c in enumerate(cores, start=1):
            if c.ndim != 3:
                raise ShapeError(f"core {k} must be 3-dimensional, got ndim={c.ndim}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ShapeError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise ShapeError(
                    f"rank mismatch between cores {k + 1} and {k + 2}: "
                    f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
                )
        self.cores = cores

    @property
    def order(self):
        return len(self.cores)

    @property
    def dims(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self):
        """Internal ranks (r_1, ..., r_{d-1})."""
        return tuple(c.shape[2] for c in self.cores[:-1])


def tt_apply(tt, free_mode, vectors):
    """Action of a tensor train without densifying it.

    Sweeps the saturating vectors through the cores from both ends and
    contracts them into the free core, costing O(d N r^2).
    """
    _check_free_mode(free_mode, tt.order)
    vectors = _check_vectors(tt.dims, free_mode, vectors)
    return _contract(tt.cores, free_mode - 1, vectors)


def _contract(cores, k, vectors):
    """The action with 0-based free core ``k``, as reshapes and matmuls.

    ``vectors`` are the validated saturating vectors in mode order.  Each
    right-sweep step takes core (a, N, b) as an (a N, b) matrix times the
    right rank vector, then the (a, N) result times the mode's vector.
    """
    left = prefix_contract(cores[:k], vectors[:k])
    right = np.ones(1)
    for j in range(len(cores) - 1, k, -1):
        a, n, b = cores[j].shape
        right = (cores[j].reshape(a * n, b) @ right).reshape(a, n) @ vectors[j - 1]
    a, n, b = cores[k].shape
    return (left @ cores[k].reshape(a, n * b)).reshape(n, b) @ right


def prefix_contract(cores, vectors):
    """Sweep ``vectors`` through the leading ``cores``, returning a rank vector.

    Each step contracts left (r_{j-1}) x core (r_{j-1}, N_j, r_j) x vector
    (N_j) into (r_j), starting from the boundary rank 1: the left vector
    times the core as an (r_{j-1}, N_j r_j) matrix, then the vector times
    that product as an (N_j, r_j) matrix.  Shapes are not checked here;
    callers validate.
    """
    out = np.ones(1)
    for c, v in zip(cores, vectors):
        a, n, b = c.shape
        out = v @ (out @ c.reshape(a, n * b)).reshape(n, b)
    return out


def rank_list(ranks, order):
    """The d-1 internal ranks as ints: None passes, a scalar is broadcast."""
    if ranks is None:
        return None
    if np.isscalar(ranks):
        return [int(ranks)] * (order - 1)
    if len(ranks) != order - 1:
        raise ShapeError(f"need {order - 1} ranks for {order} modes, got {len(ranks)}")
    return [int(r) for r in ranks]


def unfolding_caps(dims):
    """Largest rank each unfolding supports: min(N_1..N_k, N_{k+1}..N_d), k < d."""
    return [
        int(min(np.prod(dims[: k + 1], dtype=np.int64),
                np.prod(dims[k + 1:], dtype=np.int64)))
        for k in range(len(dims) - 1)
    ]


def subseed(seed, *tag):
    """Derived integer seed for the stream labelled ``tag`` under ``seed``."""
    return int(np.random.SeedSequence((seed,) + tag).generate_state(1)[0])


def tt_relative_error(reference, tt):
    """Relative Frobenius distance ``||reference - tt|| / ||reference||`` of two trains.

    Neither train is densified.  Their difference is a train whose ranks are
    the sums of theirs: first cores side by side, inner cores block
    diagonal, last cores stacked.
    """
    if reference.dims != tt.dims:
        raise ShapeError(f"shape mismatch: {reference.dims} vs {tt.dims}")
    (a, b), *inner, (y, z) = zip(reference.cores, tt.cores)
    cores = [np.concatenate((a, -b), axis=2)]
    for a, b in inner:
        (ra, n, sa), (rb, _, sb) = a.shape, b.shape
        block = np.zeros((ra + rb, n, sa + sb))
        block[:ra, :, :sa] = a
        block[ra:, :, sa:] = b
        cores.append(block)
    cores.append(np.concatenate((y, z), axis=0))
    ref = _tt_norm(reference)
    if ref == 0.0:
        raise ZeroNormError("reference train has zero norm")
    return _tt_norm(TensorTrain(cores)) / ref


def _tt_norm(tt):
    """Frobenius norm of a train: that of core 1 once the rest are orthogonal."""
    return float(np.linalg.norm(_orthogonalize_right(tt)[0]))


def fix_signs(u, companion):
    """Force the largest-magnitude entry of each column of ``u`` positive.

    Makes SVD-derived bases deterministic.  The rows of ``companion`` are
    flipped alongside so any factorization ``u @ companion`` is preserved;
    both arrays are modified in place and returned.
    """
    idx = np.abs(u).argmax(axis=0)
    flip = u[idx, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    companion[flip, :] *= -1.0
    return u, companion


def _truncated_svd(mat, rank=None, warn_label="rank"):
    """Thin SVD of ``mat`` truncated to ``rank`` (default: full), signs fixed.

    A rank beyond ``min(mat.shape)`` is clamped with a
    :class:`~ttaction.errors.RankClampWarning`.  Returns (U_r, s_r, V_r^T).
    """
    u, s, vt = scipy.linalg.svd(mat, full_matrices=False, check_finite=False)
    keep = full = min(mat.shape)
    if rank is not None:
        if rank > full:
            warnings.warn(
                f"{warn_label} {rank} exceeds matrix capacity {full}; clamped",
                RankClampWarning,
                stacklevel=2,
            )
        keep = max(1, min(rank, full))
    u = np.ascontiguousarray(u[:, :keep])
    vt = np.ascontiguousarray(vt[:keep])
    s = s[:keep].copy()
    fix_signs(u, vt)
    return u, s, vt


def _orthogonalize_right(tt):
    """The cores of ``tt`` after a right-to-left QR sweep.

    Cores 2..d come out row-orthonormal, so core 1 carries the norm.
    """
    cores = [np.asarray(c, dtype=float) for c in tt.cores]
    for k in range(tt.order - 1, 0, -1):
        r_prev, n_k, r_k = cores[k].shape
        q, rr = scipy.linalg.qr(
            cores[k].reshape(r_prev, n_k * r_k).T,
            mode="economic",
            check_finite=False,
        )
        cores[k] = q.T.reshape(-1, n_k, r_k)
        cores[k - 1] = np.tensordot(cores[k - 1], rr.T, axes=(2, 0))
    return cores


def tt_round(tt, ranks=None):
    """Truncate a train to ``ranks`` (a scalar is broadcast) without densifying.

    A right-to-left QR sweep, then left-to-right truncated SVDs, each keeping
    U as core k and carrying S V^T into core k + 1.  A rank beyond what its
    unfolding supports is clamped with a warning; without ``ranks`` every
    rank is only capped there.  Cores 1..d-1 come out left-orthonormal.
    """
    ranks = rank_list(ranks, tt.order)
    cores = _orthogonalize_right(tt)
    dims = tt.dims
    out = []
    current, left = cores[0], 1
    for k in range(tt.order - 1):
        u, s, vt = _truncated_svd(
            current.reshape(left * dims[k], -1),
            rank=None if ranks is None else ranks[k],
            warn_label=f"rank r_{k + 1}",
        )
        r = u.shape[1]
        out.append(u.reshape(left, dims[k], r))
        current = np.tensordot(s[:, None] * vt, cores[k + 1], axes=(1, 0))
        left = r
    out.append(current.reshape(left, dims[-1], 1))
    return TensorTrain(out)


# ---------------------------------------------------------------------------
# serialization


def _tt_header_bytes(tt):
    dims = tt.dims
    ranks = (1,) + tt.ranks + (1,)
    head = struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, tt.order)
    head += struct.pack(f"<{len(dims)}Q", *dims)
    head += struct.pack(f"<{len(ranks)}Q", *ranks)
    return head


def tt_save(tt, path):
    """Write a train to ``path`` in the binary format.

    Layout: magic ``TTAC``, uint32 version, uint32 order, uint64 mode sizes,
    uint64 ranks (including the boundary 1s), then each core as row-major
    little-endian float64.  The format is platform independent.
    """
    with open(path, "wb") as fh:
        fh.write(_tt_header_bytes(tt))
        for c in tt.cores:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def tt_load(path):
    """Read a train written by :func:`tt_save`.

    Raises :class:`~ttaction.errors.FormatError` with the byte offset on
    malformed input and :class:`~ttaction.errors.VersionError` on a format
    version this build does not understand.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    return _tt_from_bytes(blob)


def _tt_from_bytes(blob):
    if len(blob) < 12:
        raise FormatError("truncated header", offset=len(blob))
    magic, version, order = struct.unpack_from("<4sII", blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != _FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version}", offset=4)
    if order < 2:
        raise FormatError(f"order {order} out of range", offset=8)
    off = 12
    need = order * 8
    if len(blob) < off + need:
        raise FormatError("truncated mode sizes", offset=len(blob))
    dims = struct.unpack_from(f"<{order}Q", blob, off)
    off += need
    need = (order + 1) * 8
    if len(blob) < off + need:
        raise FormatError("truncated ranks", offset=len(blob))
    ranks = struct.unpack_from(f"<{order + 1}Q", blob, off)
    off += need
    if ranks[0] != 1 or ranks[-1] != 1:
        raise FormatError("boundary ranks must be 1", offset=off - need)
    cores = []
    for k in range(order):
        count = ranks[k] * dims[k] * ranks[k + 1]
        need = count * 8
        if len(blob) < off + need:
            raise FormatError(f"truncated core {k + 1}", offset=len(blob))
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        cores.append(data.astype(float).reshape(ranks[k], dims[k], ranks[k + 1]))
        off += need
    if off != len(blob):
        raise FormatError("trailing bytes after last core", offset=off)
    return TensorTrain(cores)


def tt_save_json(tt, path):
    """Write a train as a JSON descriptor with base64 core payloads.

    Same fields as the binary format; meant for debugging and diffing.
    """
    doc = {
        "format": _JSON_FORMAT,
        "version": _FORMAT_VERSION,
        "order": tt.order,
        "dims": list(tt.dims),
        "ranks": [1, *tt.ranks, 1],
        "cores": [
            base64.b64encode(
                np.ascontiguousarray(c, dtype="<f8").tobytes()
            ).decode("ascii")
            for c in tt.cores
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tt_load_json(path):
    """Read a train written by :func:`tt_save_json`, checked as :func:`tt_load` is."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}", offset=exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte: {exc.reason}", offset=exc.start) from exc
    if not isinstance(doc, dict) or doc.get("format") != _JSON_FORMAT:
        raise FormatError(f"not a {_JSON_FORMAT!r} descriptor")
    if doc.get("version") != _FORMAT_VERSION:
        raise VersionError(f"unsupported format version {doc.get('version')}")
    try:
        order, dims, ranks = doc["order"], doc["dims"], doc["ranks"]
        head = struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, order)
        head += struct.pack(f"<{order}Q", *dims) + struct.pack(f"<{order + 1}Q", *ranks)
        payload = [base64.b64decode(p, validate=True) for p in doc["cores"]]
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from exc
    except (TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"malformed descriptor: {exc}") from exc
    sizes = [len(raw) for raw in payload]
    need = [ranks[k] * dims[k] * ranks[k + 1] * 8 for k in range(order)]
    if sizes != need:
        raise FormatError(f"core payloads have {sizes} bytes, expected {need}")
    return _tt_from_bytes(head + b"".join(payload))
