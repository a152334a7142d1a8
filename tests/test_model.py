"""Discretized model: residual, closed-form partials, adjoints, whitening."""

import numpy as np
import pytest
import scipy.sparse.linalg

from ttaction.hovd.model import ReactionDiffusionModel
from ttaction.errors import ShapeError


def make(n=6, seed=0):
    model = ReactionDiffusionModel(n)
    rng = np.random.default_rng(seed)
    m = 0.3 * rng.standard_normal(model.n_m)
    u = 0.5 * rng.standard_normal(model.n_u)
    return model, rng, m, u


def fd_partial(model, m, u, vs, ws, eps):
    """Nested central differences of the residual along the m-directions
    ``vs``, then the u-directions ``ws``."""
    if vs:
        v, rest = np.asarray(vs[0], dtype=float).ravel(), vs[1:]
        hi = fd_partial(model, m + eps * v, u, rest, ws, eps)
        lo = fd_partial(model, m - eps * v, u, rest, ws, eps)
    elif ws:
        w, rest = np.asarray(ws[0], dtype=float).ravel(), ws[1:]
        hi = fd_partial(model, m, u + eps * w, vs, rest, eps)
        lo = fd_partial(model, m, u - eps * w, vs, rest, eps)
    else:
        return model.residual(m, u)
    return (hi - lo) / (2.0 * eps)


def test_residual_constant_state():
    model = ReactionDiffusionModel(5)
    c = 0.7
    u = np.full(model.n_u, c)
    m = np.random.default_rng(0).standard_normal(model.n_m)
    # constant state: no flux anywhere, residual is pure reaction minus source
    np.testing.assert_allclose(
        model.residual(m, u), c**3 - model.rho, atol=1e-12
    )


@pytest.mark.parametrize("n", [4, 5])
def test_residual_matches_reflected_ghost_loop(n):
    """Node-by-node reference for the wall rule, independent of the model's stencil."""
    model, _, m, u = make(n, seed=11)
    mg, ug = m.reshape(n, n), u.reshape(n, n)

    def at(z, i, j):
        # reflected ghost values: index -1 reads 1, index n reads n-2
        i = 1 if i == -1 else n - 2 if i == n else i
        j = 1 if j == -1 else n - 2 if j == n else j
        return z[i, j]

    ref = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            flux = 0.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                edge = np.exp(0.5 * (mg[i, j] + at(mg, i + di, j + dj)))
                flux += edge * (ug[i, j] - at(ug, i + di, j + dj))
            ref[i, j] = flux / model.h**2 + ug[i, j] ** 3 - model.rho_grid[i, j]
    np.testing.assert_allclose(model.residual(m, u), ref.ravel(), rtol=1e-13, atol=1e-12)


def test_source_shape():
    model = ReactionDiffusionModel(9)
    grid = model.rho_grid
    # radially increasing bump: smallest at the center, largest at corners
    assert grid[4, 4] == pytest.approx(1.0)
    assert grid[0, 0] == grid.max()
    assert grid[0, 0] == pytest.approx(np.exp(0.5 / (2 * 0.2**2)))


# (indices of the m-directions, indices of the u-directions); step sizes
# grow with the order: nested central differences amplify roundoff by 1/eps
# per level
DIRECTION_CASES = [
    (((0,), ()), 1e-6, 1e-7),
    (((), (0,)), 1e-6, 1e-7),
    (((0, 1), ()), 1e-3, 1e-5),
    (((0,), (1,)), 1e-3, 1e-5),
    (((), (0, 1)), 1e-3, 1e-5),
    (((0, 1), (2,)), 1e-2, 1e-3),
    (((), (0, 1, 2)), 1e-2, 1e-3),
    (((0,), (1, 2)), 1e-2, 1e-3),
]


@pytest.mark.parametrize("case,eps,rtol", DIRECTION_CASES)
def test_partial_g_matches_finite_differences(case, eps, rtol):
    model, rng, m, u = make(6, seed=1)
    dirs = [rng.standard_normal(model.n_u) for _ in range(3)]
    vs, ws = ([dirs[i] for i in idx] for idx in case)
    exact = model.partial_g(m, u, vs, ws)
    approx = fd_partial(model, m, u, vs, ws, eps)
    scale = max(np.linalg.norm(exact), 1.0)
    assert np.linalg.norm(exact - approx) / scale < rtol


def test_partial_g_no_directions_is_residual():
    model, _, m, u = make(5, seed=2)
    np.testing.assert_allclose(
        model.partial_g(m, u), model.residual(m, u), rtol=1e-13, atol=1e-12
    )


def test_fourth_u_derivative_vanishes():
    model, rng, m, u = make(5, seed=3)
    ws = [rng.standard_normal(model.n_u) for _ in range(4)]
    np.testing.assert_array_equal(model.partial_g(m, u, [], ws), np.zeros(model.n_u))


def test_jacobian_u_matches_directional_partial():
    model, rng, m, u = make(6, seed=4)
    jac = model.jacobian_u(m, u)
    w = rng.standard_normal(model.n_u)
    np.testing.assert_allclose(
        jac @ w, model.partial_g(m, u, [], [w]), atol=1e-11
    )


def test_base_point_memo_follows_m():
    # base edge factors are kept per base point; a new m, or an m changed in
    # place, must give what a fresh model gives
    model, rng, m, u = make(5, seed=11)
    vs, ws = [rng.standard_normal(model.n_m)], [rng.standard_normal(model.n_u)]
    other = m + 0.1 * rng.standard_normal(model.n_m)
    for point in (m, other, m):
        model.jacobian_u(point, u)
        np.testing.assert_array_equal(
            model.partial_g(point, u, vs, ws),
            ReactionDiffusionModel(5).partial_g(point, u, vs, ws),
        )
    m[3] += 0.5
    np.testing.assert_array_equal(
        model.residual(m, u), ReactionDiffusionModel(5).residual(m, u)
    )


# at n=4 every node lies on a wall or is the mirror source of a wall node's
# missing neighbour; two m directions multiply two edge means
@pytest.mark.parametrize("n_dirs", [1, 2])
@pytest.mark.parametrize("n", [6, 4])
def test_free_u_is_transpose(n, n_dirs):
    model, rng, m, u = make(n, seed=5)
    jac = model.jacobian_u(m, u)
    z = rng.standard_normal(model.n_u)
    np.testing.assert_allclose(
        model.partial_g(m, u, [], weight=z, free="u"), jac.T @ z, atol=1e-11
    )
    # and with extra differentiation directions already applied
    vs = [rng.standard_normal(model.n_m) for _ in range(n_dirs)]
    w = rng.standard_normal(model.n_u)
    lhs = model.partial_g(m, u, vs, weight=z, free="u") @ w
    rhs = model.partial_g(m, u, vs, [w]) @ z
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


# one u direction takes the s == 1 branch, which differentiates the flux of
# the direction instead of the state
@pytest.mark.parametrize("n_dirs", [0, 1])
@pytest.mark.parametrize("n", [6, 4])
def test_free_m_is_dual_to_m_direction(n, n_dirs):
    model, rng, m, u = make(n, seed=6)
    v = rng.standard_normal(model.n_m)
    z = rng.standard_normal(model.n_u)
    ws = [rng.standard_normal(model.n_u) for _ in range(n_dirs)]
    lhs = model.partial_g(m, u, [], ws, weight=z, free="m") @ v
    rhs = model.partial_g(m, u, [v], ws) @ z
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_observation_is_weighted_boundary_trace():
    model = ReactionDiffusionModel(5)
    u = np.arange(model.n_u, dtype=float)
    q = model.qoi(np.zeros(model.n_m), u)
    assert q.shape == (model.n_q,)
    np.testing.assert_allclose(q, model.h * u[model.boundary], atol=1e-15)
    # walk starts along the first row
    assert model.boundary[0] == 0 and model.boundary[1] == 1
    assert len(set(model.boundary.tolist())) == model.n_q


def test_observation_partials():
    # the observation is linear in u and free of m: partial_f is its transpose
    model, rng, m, u = make(5, seed=7)
    w = rng.standard_normal(model.n_u)
    z = rng.standard_normal(model.n_q)
    lhs = model.partial_f(m, u, z) @ w
    rhs = model.qoi(m, w) @ z
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
    v = rng.standard_normal(model.n_m)
    np.testing.assert_allclose(
        model.qoi(m + v, u + w), model.qoi(m, u) + model.qoi(m, w), atol=1e-14
    )


def test_whitening_matrix_symmetric_positive_definite():
    model = ReactionDiffusionModel(6)
    w = model.whitening_matrix()
    assert (w != w.T).nnz == 0  # exactly symmetric
    dense = w.toarray()
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0.99  # Laplacian part is PSD, identity shifts by one
    # constants lie in the Laplacian nullspace
    np.testing.assert_allclose(w @ np.ones(model.n_m), np.ones(model.n_m), atol=1e-9)


def test_factorization_solves_both_transposes():
    model, rng, m, u = make(6, seed=8)
    jac = model.jacobian_u(m, u)
    b = rng.standard_normal(model.n_u)
    fac = model.factorize(m, u)
    np.testing.assert_allclose(jac @ fac.solve(b), b, atol=1e-8)
    np.testing.assert_allclose(jac.T @ fac.solve_t(b), b, atol=1e-8)


def test_state_jacobian_is_singular_only_at_zero_state():
    # dG/du = L(m) + 3 diag(u^2), with L of zero row sums: constants are a
    # null vector at u = 0, and any nonzero entry of u makes the matrix
    # irreducibly diagonally dominant, hence nonsingular
    model, rng, m, _ = make(8, seed=15)
    b = rng.standard_normal(model.n_u)
    one_hot = np.zeros(model.n_u)
    one_hot[rng.integers(model.n_u)] = 1.0
    for u in (np.cbrt(model.rho), one_hot):
        x = model.factorize(m, u).solve(b)
        assert np.linalg.norm(model.jacobian_u(m, u) @ x - b) < 1e-10 * np.linalg.norm(b)
    jac0 = model.jacobian_u(m, np.zeros(model.n_u))
    assert np.linalg.norm(jac0 @ np.ones(model.n_u)) < 1e-12 * abs(jac0).sum(axis=1).max()


def coo_jacobian(model, m, u):
    """dG/du through COO -> CSC, reaction entries first, then per neighbour
    table row the centre and neighbour entries."""
    cf = np.exp((m + m[model._nbr]) * 0.5) * (1.0 / model.h**2)
    node = np.arange(model.n_u)
    cols = [node]
    vals = [3.0 * u**2]
    for k in range(4):
        cols += [node, model._nbr[k]]
        vals += [cf[k], -cf[k]]
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.tile(node, 9), np.concatenate(cols))),
        shape=(model.n_u, model.n_u),
    ).tocsc()


@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_jacobian_u_matches_coo_assembly_bit_for_bit(n):
    model, _, m, u = make(n, seed=12)
    jac, ref = model.jacobian_u(m, u), coo_jacobian(model, m, u)
    assert jac.format == "csc"
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(jac, part), getattr(ref, part))


def test_factorization_matches_coo_assembly_bit_for_bit():
    model, rng, m, u = make(8, seed=13)
    b = rng.standard_normal(model.n_u)
    np.testing.assert_array_equal(
        model.factorize(m, u).solve(b),
        scipy.sparse.linalg.splu(coo_jacobian(model, m, u)).solve(b),
    )


def test_validation():
    with pytest.raises(ShapeError):
        ReactionDiffusionModel(3)
    model, rng, m, u = make(5, seed=10)
    with pytest.raises(ShapeError):
        model.residual(m[:-1], u)
    # every direction is checked, in either list
    with pytest.raises(ShapeError):
        model.partial_g(m, u, [np.zeros(model.n_m + 1)])
    with pytest.raises(ShapeError):
        model.partial_g(m, u, [], [u, np.zeros(model.n_u - 1)])
    with pytest.raises(ShapeError):
        model.partial_g(m, u, weight=u, free="q")
    # observation vectors of the wrong length: one too long used to return
    # n_q values, one too short to raise IndexError, a short weight a bare
    # broadcast ValueError
    for bad in (np.zeros(model.n_u + 1), np.zeros(model.n_u - 1)):
        with pytest.raises(ShapeError):
            model.qoi(m, bad)
    for bad in (np.zeros(5), np.zeros(model.n_q + 1)):
        with pytest.raises(ShapeError):
            model.partial_f(m, u, bad)
