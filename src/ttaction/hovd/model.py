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
computations need.  The observation, linear in u and free of m, has one
partial: its transpose, ``partial_f``.
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
    """

    def __init__(self, n):
        n = int(n)
        if n < 4:
            raise ShapeError(f"grid needs at least 4 nodes per side, got {n}")
        self.n = n
        self.h = 1.0 / (n - 1)
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
        idx = []
        for j in range(n):
            idx.append((0, j))
        for i in range(1, n):
            idx.append((i, n - 1))
        for j in range(n - 2, -1, -1):
            idx.append((n - 1, j))
        for i in range(n - 2, 0, -1):
            idx.append((i, 0))
        self.boundary = np.array([i * n + j for i, j in idx], dtype=np.intp)
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
        # memo of the base edge factors exp(mean m): (bytes of m, factors)
        self._base_coeff = (None, None)

    # -- grid plumbing ------------------------------------------------------

    def _grid(self, v, name):
        """Flat float vector from an (n, n) grid or an (n^2,) vector."""
        if type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (self.n_u,):
            return v
        v = np.asarray(v, dtype=float)
        if v.shape in ((self.n, self.n), (self.n_u,)):
            return v.ravel()
        raise ShapeError(f"{name} has shape {v.shape}, expected ({self.n_u},)")

    def _gather_t(self, t):
        """Adjoint of the gather ``z[self._nbr]``: sum each row back onto its sources."""
        return np.bincount(self._nbr.ravel(), weights=t.ravel(), minlength=self.n_u)

    def _edge_coeff(self, m, vs):
        """Edge factors exp(mean m) times each direction mean, one row per neighbour.

        The base factors are computed once per base point m and kept
        read-only in ``_base_coeff``.
        """
        key = m.tobytes()
        if key != self._base_coeff[0]:
            base = np.exp((m + m[self._nbr]) * 0.5)
            base.flags.writeable = False
            self._base_coeff = (key, base)
        c = self._base_coeff[1]
        for v in vs:
            c = c * ((v + v[self._nbr]) * 0.5)
        return c

    def _diffusion(self, m, vs, y):
        """Edge-coefficient flux divergence applied to the field y."""
        c = self._edge_coeff(m, vs)
        return (c * (y - y[self._nbr])).sum(axis=0) / self.h**2

    def _diffusion_free_u(self, m, vs, z):
        """Transpose of the flux-divergence operator applied to z."""
        t = z * self._edge_coeff(m, vs)
        return (t.sum(axis=0) - self._gather_t(t)) / self.h**2

    def _diffusion_free_m(self, m, vs, y, z):
        """Gradient in the coefficient of z^T (flux divergence of y)."""
        t = 0.5 * z * self._edge_coeff(m, vs) * (y - y[self._nbr])
        return (t.sum(axis=0) + self._gather_t(t)) / self.h**2

    def _reaction(self, u, k, ws):
        """k-th u-derivative (k <= 3) of the reaction u^3 - rho, times each of ``ws``."""
        if k == 0:
            out = u**3 - self.rho
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
        """G(m, u) as a flat vector."""
        m, u = self._grid(m, "m"), self._grid(u, "u")
        return self._diffusion(m, [], u) + u**3 - self.rho

    def qoi(self, m, u):
        """Weighted boundary trace of the state."""
        u = self._grid(u, "u")
        return self.boundary_weights * u[self.boundary]

    def partial_g(self, m, u, vs=(), ws=(), weight=None, free=None):
        """Directional partial of the residual.

        ``vs`` lists the m-directions and ``ws`` the u-directions of
        differentiation.  With ``free=None`` the contracted partial itself is
        returned (length n_u).  With ``free="u"`` or ``free="m"`` one further
        derivative is taken in that variable, the output slot is contracted
        with ``weight`` and the new derivative slot is returned free, giving a
        vector in the corresponding space.  No directions with ``free=None``
        reproduces the residual.
        """
        m, u = self._grid(m, "m"), self._grid(u, "u")
        vs = [self._grid(v, "m direction") for v in vs]
        ws = [self._grid(w, "u direction") for w in ws]
        j, s = len(vs), len(ws)
        if free is None:
            out = np.zeros(self.n_u)
            if s == 0:
                out += self._diffusion(m, vs, u)
            elif s == 1:
                out += self._diffusion(m, vs, ws[0])
            if j == 0 and s <= 3:
                out += self._reaction(u, s, ws)
            return out
        z = self._grid(weight, "weight")
        if free == "u":
            out = np.zeros(self.n_u)
            if s == 0:
                out += self._diffusion_free_u(m, vs, z)
            if j == 0 and s <= 2:
                out += self._reaction(u, s + 1, ws + [z])
            return out
        if free == "m":
            if s == 0:
                return self._diffusion_free_m(m, vs, u, z)
            if s == 1:
                return self._diffusion_free_m(m, vs, ws[0], z)
            return np.zeros(self.n_m)
        raise ShapeError(f"free must be None, 'u', or 'm', got {free!r}")

    def partial_f(self, m, u, weight):
        """The observation's transpose applied to ``weight``, a u-space vector.

        The observation is linear in u with no m dependence, so this gradient
        of ``weight . qoi(m, u)`` in u is its one nonzero partial beyond
        ``qoi`` itself; it seeds the adjoint lattice.
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
        cf = self._edge_coeff(m, []) * (1.0 / self.h**2)
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

    def whitening_matrix(self):
        """Symmetric positive definite discretization of (-Laplace + I).

        Assembled edge by edge (graph Laplacian scaled by 1/h^2 plus the
        identity) so the operator, and hence its inverse, is exactly
        symmetric.
        """
        n = self.n
        inv_h2 = 1.0 / self.h**2
        rows, cols, vals = [], [], []

        def add_edges(a, b):
            rows.extend((a, b, a, b))
            cols.extend((a, b, b, a))
            vals.extend(
                (
                    np.full(a.size, inv_h2),
                    np.full(a.size, inv_h2),
                    np.full(a.size, -inv_h2),
                    np.full(a.size, -inv_h2),
                )
            )

        grid = np.arange(n * n).reshape(n, n)
        add_edges(grid[:, :-1].ravel(), grid[:, 1:].ravel())
        add_edges(grid[:-1, :].ravel(), grid[1:, :].ravel())
        lap = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_m, self.n_m),
        )
        return (lap + scipy.sparse.identity(self.n_m)).tocsc()


class FactorizedJacobian:
    """Sparse LU of the state Jacobian, reusable for both transposes."""

    def __init__(self, mat):
        self._lu = scipy.sparse.linalg.splu(mat)

    def solve(self, b):
        return self._lu.solve(np.asarray(b, dtype=float))

    def solve_t(self, b):
        return self._lu.solve(np.asarray(b, dtype=float), trans="T")
