"""Nonlinear reaction-diffusion model with closed-form directional partials.

The state equation is  -div(e^m grad u) + u^3 = rho  on the unit square with
homogeneous Neumann walls, discretized by 5-point finite differences on an
n x n node grid.  Fluxes use e^m at cell edges, with the nodal log
coefficient averaged arithmetically onto each edge.  One neighbour table
states the wall rule for u and m alike: a node's missing neighbour beyond a
wall is the node one step inside it (index -1 reads 1, index n reads n-2).
The observed quantity is the state on the 4(n-1) boundary nodes scaled by
trapezoid weights along the perimeter.

Because the coefficient enters through e^m and the reaction is cubic, every
mixed directional partial of the residual has a short closed form: each
m-derivative multiplies the edge coefficients by the direction's edge
average, and u-derivatives beyond the third kill the reaction term.
``partial_g`` evaluates those forms for a list ``vs`` of m-directions and a
list ``ws`` of u-directions, optionally with one extra differentiation slot
left free and the output contracted against a weight vector, as adjoint
computations need.  It checks its inputs and hands edge arrays to
``partial_edges``, which a caller holding checked edge arrays (the state
solve, on a column block of states) calls directly.  The forms live here in
three pieces: ``edge_operand``, the edge array a flux partial multiplies by
its edge coefficient product, ``finish_edges``, one finishing operator per
free slot, and ``reaction_part``, the node-space reaction; ``partial_edges``
is their composition.  The flux is linear in its operand, so the derivative engine
adds a whole chain-rule sum's operands in edge space and finishes it once.
Which forms are zero is stated beside them, in ``partial_vanishes``.  The
observation, linear in u and free of m, has one partial: its transpose,
``partial_f``.  No method writes to the model, so it keeps no state between
calls.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..errors import ShapeError

#: Width of the source bump, in unit-square coordinates.
SOURCE_WIDTH = 0.2


class ReactionDiffusionModel:
    """Discretized state equation plus boundary observation operator.

    Parameters
    ----------
    n : int
        Nodes per side, n >= 4.  Parameter and state both live on the full
        grid (n_m = n_u = n^2); the observation has 4(n-1) entries.

    Every vector the model takes is flat, n^2 row-major entries for a grid
    field, or, where the state solve runs a column block through the
    residual, the observation and the edge kernels, an (n^2, b) block of b
    such fields, one per column, each with the bits it has alone; an (n, n)
    array is refused with a ShapeError.
    """

    def __init__(self, n):
        n = int(n)
        if n < 4:
            raise ShapeError(f"grid needs at least 4 nodes per side, got {n}")
        self.n = n
        self.h = 1.0 / (n - 1)
        self._h2 = self.h**2
        self.n_m = n * n
        self.n_u = n * n
        self.n_q = 4 * (n - 1)

        xs = np.linspace(0.0, 1.0, n)
        xg, yg = np.meshgrid(xs, xs, indexing="ij")
        r2 = (xg - 0.5) ** 2 + (yg - 0.5) ** 2
        self.rho_grid = np.exp(r2 / (2.0 * SOURCE_WIDTH**2))
        self.rho = self.rho_grid.ravel()

        # boundary walk, counterclockwise from the origin corner; every node
        # carries weight h because the perimeter is a closed polyline
        grid = np.arange(self.n_u, dtype=np.intp).reshape(n, n)
        self.boundary = np.concatenate(
            (grid[0], grid[1:, -1], grid[-1, -2::-1], grid[-2:0:-1, 0])
        )
        self.boundary_weights = np.full(self.n_q, self.h)

        # the wall rule: row k of _nbr holds the north, south, west or east
        # neighbour of every flat node, a missing neighbour reflected to the
        # node one step inside the wall (-1 -> 1, n -> n-2)
        arange = np.arange(n)
        minus = np.abs(arange - 1)
        plus = np.where(arange + 1 > n - 1, n - 2, arange + 1)
        rows, cols = np.divmod(np.arange(self.n_u), n)
        self._nbr = np.stack(
            (
                minus[rows] * n + cols,
                plus[rows] * n + cols,
                rows * n + minus[cols],
                rows * n + plus[cols],
            )
        )

    # -- grid plumbing ------------------------------------------------------

    def _grid(self, v, name):
        """``v`` as a float vector of n^2 entries, the one form a grid field takes."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_u,):
            raise ShapeError(f"{name} has shape {v.shape}, expected ({self.n_u},)")
        return v

    def _stack(self, v, name):
        """``v`` as a flat grid field or an (n^2, b) column block of them."""
        v = np.asarray(v, dtype=float)
        if v.shape[:1] != (self.n_u,) or v.ndim > 2:
            raise ShapeError(
                f"{name} has shape {v.shape}, expected ({self.n_u},) or ({self.n_u}, b)"
            )
        return v

    @staticmethod
    def _column(x, v):
        """``x``, a per-node array, shaped to broadcast against ``v``'s columns."""
        return x if v.ndim == 1 else x[:, None]

    def _gather_t(self, t):
        """Adjoint of the gather ``z[self._nbr]``: sum each row back onto its sources."""
        return np.bincount(self._nbr.ravel(), weights=t.ravel(), minlength=self.n_u)

    def edge_means(self, v):
        """Mean of v over each node's four edges, one row per neighbour."""
        return (v + v[self._nbr]) * 0.5

    def edge_differences(self, y):
        """y at each node minus y at each neighbour, one row per neighbour."""
        return y - y[self._nbr]

    def edge_factors(self, m):
        """Base edge factors exp(mean m) of the flux at base point m."""
        return np.exp(self.edge_means(m))

    def _reaction(self, u, k, ws):
        """k-th u-derivative (k <= 3) of the reaction u^3 - rho, times each of ``ws``."""
        if k == 0:
            out = u**3 - self._column(self.rho, u)
        elif k == 1:
            out = 3.0 * u**2
        elif k == 2:
            out = 6.0 * u
        else:
            out = 6.0
        for w in ws:
            out = out * w
        return out

    # -- public contract ----------------------------------------------------

    def residual(self, m, u):
        """G(m, u), of the shape of ``m`` and ``u``: a flat vector or a column block."""
        m, u = self._stack(m, "m"), self._stack(u, "u")
        if m.shape != u.shape:
            raise ShapeError(f"u has shape {u.shape}, m has shape {m.shape}")
        flux = self.edge_factors(m) * self.edge_differences(u)
        return self.finish_edges(flux) + u**3 - self._column(self.rho, u)

    def qoi(self, u):
        """Weighted boundary trace of the state, per column of a block; free of m."""
        u = self._stack(u, "u")
        return self._column(self.boundary_weights, u) * u[self.boundary]

    def partial_g(self, m, u, vs=(), ws=(), weight=None, free=None):
        """Directional partial of the residual.

        ``vs`` lists the m-directions and ``ws`` the u-directions of
        differentiation.  With ``free=None`` the contracted partial itself is
        returned (length n_u).  With ``free="u"`` or ``free="m"`` one further
        derivative is taken in that variable, the output slot is contracted
        with ``weight`` and the new derivative slot is returned free, giving a
        vector in the corresponding space.  No directions with ``free=None``
        reproduces the residual.  Checks every input, forms the edge arrays
        and evaluates :meth:`partial_edges`.
        """
        m, u = self._grid(m, "m"), self._grid(u, "u")
        vs = [self._grid(v, "m direction") for v in vs]
        ws = [self._grid(w, "u direction") for w in ws]
        if free is not None:
            weight = self._grid(weight, "weight")
            if free not in ("u", "m"):
                raise ShapeError(f"free must be None, 'u', or 'm', got {free!r}")
        c = self.edge_factors(m)
        for v in vs:
            c = c * self.edge_means(v)
        # the kernel reads the state's differences only without u-directions
        du = None if ws else self.edge_differences(u)
        dws = [self.edge_differences(w) for w in ws]
        return self.partial_edges(u, du, c, len(vs), ws, dws, weight, free)

    def partial_edges(self, u, du, c, j, ws, dws, weight=None, free=None):
        """The closed forms of :meth:`partial_g`, on edge arrays; checks nothing.

        ``c`` is the edge-coefficient product: :meth:`edge_factors` at the
        base point times the :meth:`edge_means` of each of the ``j``
        m-directions, in order.  ``du`` and ``dws`` are the
        :meth:`edge_differences` of the state ``u``, read only when ``ws`` is
        empty, and of each u-direction in ``ws``.  ``weight`` and ``free`` are
        those of :meth:`partial_g`, ``free`` one of None, ``"u"`` and ``"m"``.
        The result is :meth:`finish_edges` of ``c`` times
        :meth:`edge_operand`, plus :meth:`reaction_part` when ``j == 0``, and
        is zero exactly where :meth:`partial_vanishes` says so.
        """
        e = self.edge_operand(du, dws, weight, free)
        r = self.reaction_part(u, ws, weight, free) if j == 0 else None
        if e is None:
            return np.zeros(self.n_u) if r is None else r
        out = self.finish_edges(c * e, free)
        return out if r is None else out + r

    @staticmethod
    def edge_operand(du, dws, weight, free):
        """The edge array a flux partial multiplies by its edge product ``c``.

        ``du``, ``dws``, ``weight`` and ``free`` are those of
        :meth:`partial_edges`: the differences ``dw`` of the state (no
        u-direction) or of the one u-direction for ``free=None``, the weight
        for ``"u"`` (no u-direction) and ``0.5 * weight * dw`` for ``"m"``.
        None where the flux, linear in u, has no partial.
        """
        s = len(dws)
        if free == "u":
            return weight if s == 0 else None
        if s > 1:
            return None
        dw = du if s == 0 else dws[0]
        return dw if free is None else 0.5 * weight * dw

    def finish_edges(self, t, free=None):
        """The finishing operator of the free slot, on an edge array ``t``.

        The flux divergence for ``free=None``: the four edge rows summed, over
        h^2.  Its transposes for ``"u"`` and ``"m"``: the row sum minus
        (``"u"``) or plus (``"m"``) the sum of each row back onto its
        neighbour sources, over h^2.
        """
        rows = t[0] + t[1] + t[2] + t[3]
        if free is None:
            return rows / self._h2
        if free == "u":
            return (rows - self._gather_t(t)) / self._h2
        return (rows + self._gather_t(t)) / self._h2

    def reaction_part(self, u, ws, weight, free):
        """The reaction's node-space partial, for no m-direction; None where zero.

        The reaction u^3 - rho is free of m, so it enters a partial only with
        ``j == 0``: its ``len(ws)``-th u-derivative times ``ws`` for
        ``free=None``, one u-derivative more times ``weight`` as well for
        ``"u"``, nothing for ``"m"`` and nothing past the third derivative.
        """
        if free == "u":
            ws = [*ws, weight]
        if free == "m" or len(ws) > 3:
            return None
        return self._reaction(u, len(ws), ws)

    @staticmethod
    def partial_vanishes(j, s, free):
        """Whether :meth:`partial_edges` is zero for j m- and s u-directions.

        The flux is linear in u, so it survives at most one u-direction (none
        with ``free="u"``), and the reaction u^3 is free of m and has three
        u-derivatives.
        """
        if free is None:
            return s >= 2 and (j >= 1 or s >= 4)
        if free == "u":
            return s >= 1 and (j >= 1 or s >= 3)
        return s >= 2

    def partial_f(self, weight):
        """The observation's transpose applied to ``weight``, a u-space vector.

        The observation is linear in u with no m dependence, so this gradient
        of ``weight . qoi(u)`` in u is its one nonzero partial beyond ``qoi``
        itself, the same at every (m, u); it seeds the adjoint lattice.
        """
        w = np.asarray(weight, dtype=float)
        if w.shape != (self.n_q,):
            raise ShapeError(f"weight has shape {w.shape}, expected ({self.n_q},)")
        out = np.zeros(self.n_u)
        out[self.boundary] = self.boundary_weights * w
        return out

    def jacobian_u(self, m, u):
        """Sparse state Jacobian dG/du at (m, u), in CSC form.

        Assembled through COO with the reaction entries first, then per
        neighbour table row the centre and neighbour entries; the conversion
        sums duplicates in that order.
        """
        m, u = self._grid(m, "m"), self._grid(u, "u")
        cf = self.edge_factors(m) * (1.0 / self._h2)
        node = np.arange(self.n_u)
        centre = np.broadcast_to(node, self._nbr.shape)
        cols = np.concatenate((node, np.stack((centre, self._nbr), axis=1).ravel()))
        vals = np.concatenate(
            (self._reaction(u, 1, []), np.stack((cf, -cf), axis=1).ravel())
        )
        return scipy.sparse.coo_matrix(
            (vals, (np.tile(node, 9), cols)), shape=(self.n_u, self.n_u)
        ).tocsc()

    def factorize(self, m, u):
        """LU-factorized state Jacobian with forward and transpose solves."""
        return FactorizedJacobian(self.jacobian_u(m, u))


class FactorizedJacobian:
    """Sparse LU of the state Jacobian, reusable for both transposes."""

    def __init__(self, mat):
        self._lu = scipy.sparse.linalg.splu(mat)

    def solve(self, b):
        return self._lu.solve(np.asarray(b, dtype=float))

    def solve_t(self, b):
        return self._lu.solve(np.asarray(b, dtype=float), trans="T")
