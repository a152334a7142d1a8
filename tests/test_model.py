"""Discretized model: residual, closed-form partials, adjoints, whitening."""

import numpy as np
import pytest
import scipy.sparse.linalg

from chain_rule_reference import finish_part, part_pieces
from ttaction.hovd.model import ReactionDiffusionModel
from ttaction.hovd.oracle import WhitenedMap, solve_state
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


def solve_jacobian_product(model, m, u, s):
    """J s as the state solve forms it, on a flat vector or a column block."""
    flux = model.finish_edges(model.edge_factors(m) * model.edge_differences(s))
    return flux + model.reaction_factor(u, 1) * s


def test_jacobian_u_matches_directional_partial():
    model, rng, m, u = make(6, seed=4)
    jac = model.jacobian_u(m, u)
    w = rng.standard_normal(model.n_u)
    np.testing.assert_allclose(
        jac @ w, model.partial_g(m, u, [], [w]), atol=1e-11
    )
    js = solve_jacobian_product(model, m, u, w)
    np.testing.assert_allclose(jac @ w, js, atol=1e-11)
    # every column of a block, each at its own (m, u)
    mb = 0.3 * rng.standard_normal((model.n_m, 3))
    ub = 0.5 * rng.standard_normal((model.n_u, 3))
    sb = rng.standard_normal((model.n_u, 3))
    js = solve_jacobian_product(model, mb, ub, sb)
    for j in range(3):
        want = model.jacobian_u(mb[:, j], ub[:, j]) @ sb[:, j]
        np.testing.assert_allclose(js[:, j], want, atol=1e-11)


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


def test_model_methods_write_nothing_to_the_model():
    # the model keeps no state between calls: its attributes keep their
    # keys, objects and bytes through every method, a state solve included
    model, rng, m, u = make(5, seed=12)
    before = {k: (v, v.tobytes() if isinstance(v, np.ndarray) else v)
              for k, v in vars(model).items()}
    vs, ws = [rng.standard_normal(model.n_m)], [rng.standard_normal(model.n_u)]
    model.residual(m, u)
    model.partial_g(m, u, vs, ws)
    model.partial_g(m, u, vs, weight=u, free="m")
    model.jacobian_u(m, u)
    model.factorize(m, u)
    solve_state(model, m)
    assert vars(model).keys() == before.keys()
    for k, v in vars(model).items():
        assert v is before[k][0], k
        if isinstance(v, np.ndarray):
            assert v.tobytes() == before[k][1], k


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


def test_edge_kernel_matches_partial_g_and_its_zero_pattern():
    # the public pieces partial_pattern names, finish_edges of the edge
    # product times the flux operand plus the reaction, give partial_g's
    # bytes, which are all zeros exactly where the pattern names neither
    model, rng, m, u = make(5, seed=16)
    vs = [rng.standard_normal(model.n_m) for _ in range(5)]
    ws = [rng.standard_normal(model.n_u) for _ in range(5)]
    z = rng.standard_normal(model.n_u)
    du = model.edge_differences(u)
    dws = [model.edge_differences(w) for w in ws]
    factors = [model.reaction_factor(u, k) for k in range(4)]
    zeros = set()
    for j in range(6):
        c = model.edge_factors(m)
        for v in vs[:j]:
            c = c * model.edge_means(v)
        for s in range(6):
            for free in (None, "u", "m"):
                e, r = part_pieces(model, factors, du, ws[:s], dws[:s], j, z, free)
                got = finish_part(model, c, e, r, free)
                want = model.partial_g(m, u, vs[:j], ws[:s], weight=z, free=free)
                assert got.tobytes() == want.tobytes(), (j, s, free)
                if not want.any():
                    zeros.add((j, s, free))
                named = model.partial_pattern(j, s, free) != (None, None)
                assert named == ((j, s, free) not in zeros)
    assert len(zeros) == 22 + 28 + 24  # free None, "u" and "m"


def test_observation_is_weighted_boundary_trace():
    model = ReactionDiffusionModel(5)
    u = np.arange(model.n_u, dtype=float)
    q = model.qoi(u)
    assert q.shape == (model.n_q,)
    np.testing.assert_allclose(q, model.h * u[model.boundary], atol=1e-15)
    # walk starts along the first row
    assert model.boundary[0] == 0 and model.boundary[1] == 1
    assert len(set(model.boundary.tolist())) == model.n_q


def test_observation_partials():
    # the observation is linear in u and free of m: partial_f is its transpose
    model, rng, _, u = make(5, seed=7)
    w = rng.standard_normal(model.n_u)
    z = rng.standard_normal(model.n_q)
    lhs = model.partial_f(z) @ w
    rhs = model.qoi(w) @ z
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
    np.testing.assert_allclose(
        model.qoi(u + w), model.qoi(u) + model.qoi(w), atol=1e-14
    )


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


def walked_boundary(n):
    """Flat boundary indices, walked counterclockwise from the origin corner."""
    idx = [(0, j) for j in range(n)]
    idx += [(i, n - 1) for i in range(1, n)]
    idx += [(n - 1, j) for j in range(n - 2, -1, -1)]
    idx += [(i, 0) for i in range(n - 2, 0, -1)]
    return np.array([i * n + j for i, j in idx], dtype=np.intp)


def edge_whitening(model):
    """(-Laplace + I) assembled edge by edge through COO -> CSC: each grid
    edge adds 1/h^2 on its two diagonal entries and -1/h^2 off them."""
    n, inv_h2 = model.n, 1.0 / model.h**2
    grid = np.arange(n * n).reshape(n, n)
    rows, cols = [], []
    for a, b in ((grid[:, :-1], grid[:, 1:]), (grid[:-1, :], grid[1:, :])):
        a, b = a.ravel(), b.ravel()
        rows += [a, b, a, b]
        cols += [a, b, b, a]
    signs = np.repeat([1.0, 1.0, -1.0, -1.0] * 2, [r.size for r in rows])
    lap = scipy.sparse.coo_matrix(
        (signs * inv_h2, (np.concatenate(rows), np.concatenate(cols))),
        shape=(model.n_m, model.n_m),
    )
    return (lap + scipy.sparse.identity(model.n_m)).tocsc()


@pytest.mark.parametrize("n", [4, 5, 8, 12, 32])
def test_grid_structure_matches_the_walks_bit_for_bit(n):
    model = ReactionDiffusionModel(n)
    assert model.boundary.dtype == np.intp
    np.testing.assert_array_equal(model.boundary, walked_boundary(n))


def relative_column_errors(p, ref):
    """||p_j - ref_j|| / ||ref_j|| for each column j of a block, or the vector."""
    return np.linalg.norm(p - ref, axis=0) / np.linalg.norm(ref, axis=0)


@pytest.mark.parametrize("n", [4, 5, 8, 12, 32, 64, 128])
def test_smoother_matches_the_sparse_solve_of_the_edge_assembly(n):
    # at n = 128 the sparse solve's own error dominates the gap: against a
    # solution refined in extended precision it is off by 7e-13, the closed form by 6e-14
    model = ReactionDiffusionModel(n)
    smoother, w = WhitenedMap(model), edge_whitening(model)
    rng = np.random.default_rng(n)
    x, block = rng.standard_normal(model.n_m), rng.standard_normal((model.n_m, 16))
    p = smoother.apply(x)
    assert p.shape == x.shape
    assert relative_column_errors(p, scipy.sparse.linalg.spsolve(w, x)) <= 1e-12
    ps = smoother.apply(block)
    assert ps.shape == block.shape
    assert relative_column_errors(ps, scipy.sparse.linalg.spsolve(w, block)).max() <= 1e-12
    assert smoother.apply(np.zeros((model.n_m, 0))).shape == (model.n_m, 0)


def test_smoother_is_symmetric_fixes_constants_and_never_grows_a_norm():
    # the smoother is the inverse of (-Laplace + I): symmetric, with the
    # Laplacian's nullspace (constants) fixed and every other eigenvalue in (0, 1)
    for n in (4, 6, 12):
        model = ReactionDiffusionModel(n)
        smoother = WhitenedMap(model)
        x, y = np.random.default_rng(n).standard_normal((2, model.n_m))
        a, b = y @ smoother.apply(x), x @ smoother.apply(y)
        assert abs(a - b) <= 1e-14 * abs(a)
        ones = np.ones(model.n_m)
        np.testing.assert_allclose(smoother.apply(ones), ones, rtol=1e-14)
        # random draws and the roughest grid mode, the checkerboard
        checker = np.indices((n, n)).sum(axis=0).ravel() % 2 * 2.0 - 1.0
        for v in (x, y, checker):
            p = smoother.apply(v)
            assert 0.0 < v @ p and np.linalg.norm(p) < np.linalg.norm(v)


@pytest.mark.parametrize("n", [5, 8, 12, 32, 64])
def test_smoother_block_columns_are_bitwise_single_draws(n):
    model = ReactionDiffusionModel(n)
    smoother = WhitenedMap(model)
    block = np.random.default_rng(n).standard_normal((model.n_m, 16))
    out = smoother.apply(block)
    for j in range(block.shape[1]):
        np.testing.assert_array_equal(out[:, j], smoother.apply(block[:, j].copy()))


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
    # a bad free slot is named before the weight it would contract
    with pytest.raises(ShapeError, match="free must be None, 'u', or 'm', got 'x'"):
        model.partial_g(m, u, free="x")
    # observation vectors of the wrong length: one too long used to return
    # n_q values, one too short to raise IndexError, a short weight a bare
    # broadcast ValueError
    for bad in (np.zeros(model.n_u + 1), np.zeros(model.n_u - 1)):
        with pytest.raises(ShapeError):
            model.qoi(bad)
    for bad in (np.zeros(5), np.zeros(model.n_q + 1)):
        with pytest.raises(ShapeError):
            model.partial_f(bad)


def test_grid_shaped_vectors_are_refused():
    # every vector is flat, of n^2 entries; the (n, n) grid of the same
    # entries is refused wherever a vector enters
    model, _, m, u = make(5, seed=12)
    grid = u.reshape(model.n, model.n)
    with pytest.raises(ShapeError):
        model.residual(m.reshape(model.n, model.n), u)
    with pytest.raises(ShapeError):
        model.residual(m, grid)
    with pytest.raises(ShapeError):
        model.partial_g(m, grid)
    with pytest.raises(ShapeError):
        model.partial_g(m, u, [m.reshape(model.n, model.n)])
    with pytest.raises(ShapeError):
        model.partial_g(m, u, [], [grid])
    with pytest.raises(ShapeError):
        model.partial_g(m, u, weight=grid, free="u")
    with pytest.raises(ShapeError):
        model.qoi(grid)


def test_column_blocks_act_bitwise_as_their_columns():
    # the residual, the observation and the edge kernels (finish_edges with
    # no free slot, reaction_factor and the state solve's J s formed from
    # them) take an (n^2, b) block of fields, one column each, with every
    # column's bits
    model, rng, _, _ = make(6, seed=14)
    m = 0.3 * rng.standard_normal((model.n_m, 3))
    u = 0.5 * rng.standard_normal((model.n_u, 3))
    w = rng.standard_normal((model.n_u, 3))
    c = model.edge_factors(m)
    dw = model.edge_differences(w)
    res = model.residual(m, u)
    q = model.qoi(u)
    kernels = [
        model.finish_edges(c * model.edge_differences(u)),
        model.finish_edges(c * dw),
        *(model.reaction_factor(u, k) for k in range(3)),
        model.finish_edges(c * dw) + model.reaction_factor(u, 1) * w,
    ]
    assert res.shape == (model.n_u, 3) and q.shape == (model.n_q, 3)
    for j in range(3):
        mj, uj, wj = m[:, j].copy(), u[:, j].copy(), w[:, j].copy()
        cj, dwj = model.edge_factors(mj), model.edge_differences(wj)
        np.testing.assert_array_equal(res[:, j], model.residual(mj, uj))
        np.testing.assert_array_equal(q[:, j], model.qoi(uj))
        singles = [
            model.finish_edges(cj * model.edge_differences(uj)),
            model.finish_edges(cj * dwj),
            *(model.reaction_factor(uj, k) for k in range(3)),
            model.finish_edges(cj * dwj) + model.reaction_factor(uj, 1) * wj,
        ]
        for block, single in zip(kernels, singles):
            np.testing.assert_array_equal(block[:, j], single)


def test_blocks_of_other_shapes_are_refused():
    model, _, m, u = make(5, seed=15)
    block = np.zeros((model.n_u, 2))
    with pytest.raises(ShapeError, match="u has shape"):
        model.residual(block, np.zeros((model.n_u, 3)))
    with pytest.raises(ShapeError, match="u has shape"):
        model.residual(block, u)
    with pytest.raises(ShapeError):
        model.residual(m[:, None, None], u[:, None, None])
    with pytest.raises(ShapeError):
        model.qoi(np.zeros((model.n_u, 2, 1)))
    # partial_g and the Jacobian take flat vectors only
    with pytest.raises(ShapeError):
        model.partial_g(block, block)
    with pytest.raises(ShapeError):
        model.jacobian_u(block, block)
