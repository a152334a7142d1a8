"""Tensors given by their action, tensor-train containers, rounding, and serialization.

A d-th order tensor is used here only through its *action*: saturate every
mode but one with a vector and return the remaining fiber.  For d = 2 this is
the familiar matrix-vector product.  Saturating entries broadcast like numpy
arrays: each is an (N_k,) vector or an (N_k, *batch_k) array, the batch shapes
broadcast to one shape B, and the action returns (N_free, *B) and counts
prod(B) actions.  An (N_k, b) block per mode is the case B = (b,).
Mode numbers in the public interface are 1-based; storage is plain 0-based
numpy.

A dense array enters only through :func:`oracle_from_dense`; no train is
ever densified.
"""

from __future__ import annotations

import math
import struct
import warnings
import zlib
from functools import reduce

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

# the boundary rank as a stack of one 1 x 1 matrix, shared read-only by
# every contraction
_BOUNDARY = np.ones((1, 1, 1))
_BOUNDARY.flags.writeable = False

_MAGIC = b"TTAC"
_FORMAT_VERSION = 2


def _check_dims(dims):
    """Mode sizes as a tuple of ints: at least 2 modes, each of positive size."""
    dims = tuple(int(n) for n in dims)
    if len(dims) < 2 or any(n < 1 for n in dims):
        raise ShapeError(f"need at least 2 modes of positive size, got {dims}")
    return dims


def _check_vectors(dims, free_mode, vectors):
    """Check ``free_mode`` and the d-1 saturating entries, coerced to blocks.

    ``free_mode`` must lie in 1..d.  Entry k is an (N_k,) vector or an
    (N_k, *batch_k) array whose trailing axes index independent actions.
    The batch shapes must broadcast, as numpy arrays do, to one shape B
    without a zero axis.  Returns the entries, each (N_k, *batch_k) with
    batch_k padded by leading 1s to the length of B, and B.  With B = ()
    (every entry a vector) each entry comes back as an (N_k, 1) block.
    Equal batch shapes, the common case, skip the broadcast.
    """
    if not 1 <= free_mode <= len(dims):
        raise ShapeError(f"free_mode must be in 1..{len(dims)}, got {free_mode}")
    other = dims[: free_mode - 1] + dims[free_mode:]
    if len(vectors) != len(other):
        raise ShapeError(
            f"expected {len(other)} vectors for a {len(dims)}-mode tensor "
            f"with free mode {free_mode}, got {len(vectors)}"
        )
    blocks, batch, bad, same = [], None, False, True
    for n, v in zip(other, vectors):
        v = np.asarray(v, dtype=float)
        shape = v.shape
        if not shape or shape[0] != n:
            bad = True
        if batch is None:
            batch = shape[1:]
        elif shape[1:] != batch:
            same = False
        blocks.append(v)
    if not (bad or same):
        try:
            batch = np.broadcast_shapes(*(v.shape[1:] for v in blocks))
        except ValueError:
            bad = True
        else:
            blocks = [
                v.reshape(v.shape[:1] + (1,) * (len(batch) + 1 - v.ndim) + v.shape[1:])
                for v in blocks
            ]
    if bad or 0 in batch:
        raise ShapeError(
            "saturating entries must be (N_k,) vectors or (N_k, *batch) arrays "
            "whose batch shapes broadcast to one shape without a zero axis; got "
            f"shapes {[np.shape(v) for v in vectors]} for mode sizes {list(other)}"
        )
    if not batch:
        blocks = [v[:, None] for v in blocks]
    return blocks, batch


class ActionOracle:
    """A tensor exposed only through its action, with a call counter.

    Parameters
    ----------
    dims : sequence of int
        Mode sizes (N_1, ..., N_d), d >= 2.
    apply_fn : callable
        ``apply_fn(free_mode, blocks) -> ndarray`` implementing the action.
        ``blocks`` arrive checked and in increasing mode order, one
        (N_k, *batch_k) array per saturated mode, the batch shapes of one
        length; each index of their broadcast shape B is one action, and
        the result is the (N_free, *B) array of their fibers.  A call with
        plain vectors reaches ``apply_fn`` as (N_k, 1) blocks.

    Notes
    -----
    Saturating entries broadcast like numpy arrays: each is (N_k,) or
    (N_k, *batch_k), and the batch shapes broadcast to one shape B.  An
    action returns (N_free, *B) and counts prod(B) actions, so a build
    stage is one action: its interpolation prefixes enter as (N_k, W, 1)
    and its samples as (N_k, 1, S).  Equal-width (N_k, b) blocks are the
    case B = (b,).  Serves one caller at a time, as a numpy ``Generator``
    does: the counter has no synchronisation.
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
        """Number of actions performed since construction, one per batch index."""
        return self._count

    def clear_cache(self):
        """Drop work cached between actions; the base oracle keeps none.

        Subclasses that cache override it.  Callers clear before each run
        that must not reuse an earlier run's work, such as every iteration
        of a power method.  Clearing must not change what an action returns.
        """

    def action(self, free_mode, vectors):
        """Saturate all modes but ``free_mode`` (1-based) and return the fiber.

        ``vectors`` holds one entry per saturated mode: a vector, or an
        (N_k, *batch_k) array for many actions at once.  The batch shapes
        broadcast to B; the result is the (N_free, *B) array of fibers and
        counts prod(B) actions, and plain vectors return one fiber.  Entries
        are checked before the counter moves.  Raises
        :class:`~ttaction.errors.NonFiniteActionError` when a fiber holds a
        NaN or an infinity.
        """
        blocks, batch = _check_vectors(self.dims, free_mode, vectors)
        self._count += math.prod(batch)
        out = np.asarray(self._apply(free_mode, blocks), dtype=float)
        shape = (self.dims[free_mode - 1], *(batch or (1,)))
        if out.shape != shape:
            raise ShapeError(f"action returned shape {out.shape}, expected {shape}")
        if np.count_nonzero(np.isfinite(out)) != out.size:
            raise NonFiniteActionError(
                f"action with free mode {free_mode} returned non-finite entries"
            )
        return out if batch else out[:, 0]


def oracle_from_dense(tensor):
    """Wrap a dense array of order >= 2 as an :class:`ActionOracle`.

    An action broadcasts the checked entries to one batch and contracts
    every mode but the free one against each batch index.
    """
    tensor = np.asarray(tensor, dtype=float)

    def apply_fn(free_mode, blocks):
        # row j is the Kronecker product of the saturating vectors of batch
        # index j, first saturated mode slowest; one matrix-vector product
        # per row, so every action has the bits of a single one
        batch = np.broadcast_shapes(*(v.shape[1:] for v in blocks))
        width = math.prod(batch)
        rows = [_rows(np.broadcast_to(v, v.shape[:1] + batch).reshape(-1, width)) for v in blocks]
        kron = reduce(lambda a, v: (a[:, :, None] * v[:, None, :]).reshape(width, -1), rows)
        free = np.moveaxis(tensor, free_mode - 1, 0)
        out = (free.reshape(free.shape[0], -1) @ kron[:, :, None])[:, :, 0].T
        return out.reshape(free.shape[0], *batch)

    return ActionOracle(tensor.shape, apply_fn)


def oracle_from_tt(tt):
    """Wrap a :class:`TensorTrain` as an :class:`ActionOracle`.

    Each action is one :func:`_contract`, so a build stage sweeps its
    interpolation prefixes and its samples once each.
    """
    # the oracle has validated the blocks already
    return ActionOracle(tt.dims, lambda k, vs: _contract(tt.cores, k - 1, vs))


class TensorTrain:
    """Tensor train with cores stored as (left_rank, mode_size, right_rank).

    Boundary ranks are fixed to 1, so a d-mode train is the core chain
    (1, N_1, r_1), (r_1, N_2, r_2), ..., (r_{d-1}, N_d, 1), with every mode
    size and internal rank at least 1.  The represented
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
        _check_dims(c.shape[1] for c in cores)
        ranks = [c.shape[2] for c in cores[:-1]]
        if min(ranks) < 1:
            raise ShapeError(f"internal ranks must be >= 1, got {ranks}")
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

    Takes vectors or broadcasting (N_k, *batch_k) entries as
    :meth:`ActionOracle.action` does and returns the fiber or the
    (N_free, *B) array of fibers.  Sweeps the saturating vectors through the
    cores from both ends and contracts them into the free core, costing
    O(d N r^2) per action.
    """
    blocks, batch = _check_vectors(tt.dims, free_mode, vectors)
    out = _contract(tt.cores, free_mode - 1, blocks)
    return out if batch else out[:, 0]


def _rows(v):
    """Entry ``v`` (N, *b) as the C-contiguous (*b, N) stack of its vectors."""
    return np.ascontiguousarray(v.transpose(*range(1, v.ndim), 0))


def _contract(cores, k, blocks):
    """The (N, *B) array of actions with 0-based free core ``k``.

    ``blocks`` are the checked (N_j, *b_j) saturating entries in mode order,
    their batch shapes of one length and broadcasting to B.  The entries
    before core ``k`` are swept left to right (:func:`prefix_contract`) and
    the ones after it right to left, each sweep over its own entries' batch
    shapes only, and one stacked product joins the two: a build stage's
    prefixes (N_j, W, 1) and samples (N_j, 1, S) are swept once each.
    Every step is a stack of matrix-vector products, one per batch index,
    so each action has the bits of a single one.  Each right-sweep step
    takes core (a, N, c) as an (a N, c) matrix times the right rank vector,
    then the (a, N) result times the mode's vector.
    """
    right = _BOUNDARY
    for j in range(len(cores) - 1, k, -1):
        a, n, c = cores[j].shape
        right = (cores[j].reshape(a * n, c) @ right).reshape(*right.shape[:-2], a, n)
        right = right @ _rows(blocks[j - 1])[..., None]
    left = prefix_contract(cores[:k], blocks[:k])
    a, n, c = cores[k].shape
    left = (left @ cores[k].reshape(a, n * c)).reshape(*left.shape[:-2], n, c)
    out = (left @ right)[..., 0]
    return out.transpose(out.ndim - 1, *range(out.ndim - 1))


def prefix_contract(cores, blocks):
    """Sweep (N_j, *b) entries through the leading ``cores`` into a (*b, 1, r) stack.

    Entry j of the stack is the rank vector that saturating modes
    1..len(cores) with batch index j of each entry leaves, kept as a (1, r)
    matrix so that it multiplies the next core directly; the entries' batch
    shapes broadcast.  Each step contracts left (r_{j-1}) x core
    (r_{j-1}, N_j, r_j) x vector (N_j) into (r_j) for every batch index, as
    stacked matmuls: the left vector times the core as an (r_{j-1}, N_j r_j)
    matrix, then the vector times that product as an (N_j, r_j) matrix.
    Starts from the boundary rank 1 as one row, which broadcasts against any
    batch; with no cores the result is ``ones((1, 1, 1))``.  Shapes are not
    checked here; callers validate.
    """
    out = _BOUNDARY
    for c, v in zip(cores, blocks):
        a, n, r = c.shape
        out = (out @ c.reshape(a, n * r)).reshape(*out.shape[:-2], n, r)
        out = _rows(v)[..., None, :] @ out
    return out


def rank_list(ranks, order):
    """The d-1 internal ranks as ints: None passes, a scalar is broadcast.

    A wrong count or a rank below 1 raises
    :class:`~ttaction.errors.ShapeError`.
    """
    if ranks is None:
        return None
    if np.isscalar(ranks):
        ranks = [ranks] * (order - 1)
    if len(ranks) != order - 1:
        raise ShapeError(f"need {order - 1} ranks for {order} modes, got {len(ranks)}")
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks):
        raise ShapeError(f"ranks must be >= 1, got {ranks}")
    return ranks


def unfolding_caps(dims):
    """Largest rank each unfolding supports: min(N_1..N_k, N_{k+1}..N_d), k < d."""
    return [
        int(min(math.prod(dims[: k + 1]), math.prod(dims[k + 1:])))
        for k in range(len(dims) - 1)
    ]


def subseed(seed, *tag):
    """Derived integer seed for the stream labelled ``tag`` under ``seed``."""
    return int(np.random.SeedSequence((seed,) + tag).generate_state(1)[0])


def tt_relative_error(reference, tt, reference_norm=None):
    """Relative Frobenius distance ``||reference - tt|| / ||reference||`` of two trains.

    Neither train is densified.  Their difference is a train whose ranks are
    the sums of theirs: first cores side by side, inner cores block
    diagonal, last cores stacked.  A caller that measures many trains
    against one reference passes its norm, ``reference_norm``, computed once
    (``_tt_norm(reference)``); by default it is computed here.
    """
    if reference.dims != tt.dims:
        raise ShapeError(f"shape mismatch: {reference.dims} vs {tt.dims}")
    ref = _tt_norm(reference) if reference_norm is None else float(reference_norm)
    if ref == 0.0:
        raise ZeroNormError("reference train has zero norm")
    (a, b), *inner, (y, z) = zip(reference.cores, tt.cores)
    cores = [np.concatenate((a, -b), axis=2)]
    for a, b in inner:
        (ra, n, sa), (rb, _, sb) = a.shape, b.shape
        block = np.zeros((ra + rb, n, sa + sb))
        block[:ra, :, :sa] = a
        block[ra:, :, sa:] = b
        cores.append(block)
    cores.append(np.concatenate((y, z), axis=0))
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
        keep = min(rank, full)
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


def tt_save(tt, path):
    """Write a train to ``path`` in the binary format.

    Layout: magic ``TTAC``, uint32 version, uint32 order, uint64 mode sizes,
    uint64 ranks (including the boundary 1s), then each core as row-major
    float64, then a uint32 CRC-32 of every byte before it.  Every field is
    little-endian, so the format is platform independent.
    """
    ranks = (1,) + tt.ranks + (1,)
    blob = struct.pack(
        f"<4sII{tt.order}Q{len(ranks)}Q", _MAGIC, _FORMAT_VERSION, tt.order, *tt.dims, *ranks
    )
    blob += b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes() for c in tt.cores)
    with open(path, "wb") as fh:
        fh.write(blob + struct.pack("<I", zlib.crc32(blob)))


def tt_load(path):
    """Read a train written by :func:`tt_save`.

    Raises :class:`~ttaction.errors.FormatError` with the byte offset on
    malformed input, a checksum mismatch included, and
    :class:`~ttaction.errors.VersionError` on a format version this build
    does not read.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
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
    if len(blob) < off + 4:
        raise FormatError("truncated checksum", offset=len(blob))
    if len(blob) > off + 4:
        raise FormatError("trailing bytes after the checksum", offset=off + 4)
    if struct.unpack_from("<I", blob, off)[0] != zlib.crc32(memoryview(blob)[:off]):
        raise FormatError("checksum mismatch", offset=off)
    try:
        return TensorTrain(cores)
    except ShapeError as exc:
        raise FormatError(f"not a valid train: {exc}", offset=12) from exc
