"""Implicit-map derivative tensors: state solve, lattices, counters, oracle."""

import gc
import weakref

import numpy as np
import pytest

from ttaction.errors import NewtonError, ShapeError
from ttaction.hovd import oracle as oracle_module
from ttaction.hovd import (
    DerivativeEngine,
    ReactionDiffusionModel,
    WhitenedMap,
    make_derivative_oracle,
    solve_state,
)


def test_solve_state_zero_source_is_zero():
    model = ReactionDiffusionModel(5)
    model.rho_grid = np.zeros_like(model.rho_grid)
    model.rho = model.rho_grid.ravel()
    u, iters = solve_state(model, np.zeros(model.n_m))
    assert iters == 0
    assert not u.any()


def test_solve_state_postcondition():
    model = ReactionDiffusionModel(6)
    m = 0.2 * np.random.default_rng(0).standard_normal(model.n_m)
    u, iters = solve_state(model, m)
    res = np.linalg.norm(model.residual(m, u))
    assert res < 1e-10 * max(1.0, np.linalg.norm(model.rho))
    assert iters > 0


def test_solve_state_runs_out_of_iterations():
    model = ReactionDiffusionModel(5)
    with pytest.raises(NewtonError):
        solve_state(model, np.zeros(model.n_m), max_iter=1)


def test_state_responds_quadratically_to_source_scaling():
    # linearization about the solved base state: scaling the source by 1+s
    # moves the state by the Jacobian solve plus an O(s^2) remainder
    model = ReactionDiffusionModel(6)
    m = np.zeros(model.n_m)
    base, _ = solve_state(model, m)
    factor = model.factorize(m, base)

    def gap(s):
        scaled = ReactionDiffusionModel(6)
        scaled.rho_grid = model.rho_grid * (1.0 + s)
        scaled.rho = scaled.rho_grid.ravel()
        u_s, _ = solve_state(scaled, m, u0=base)
        predicted = factor.solve(s * model.rho)
        return np.linalg.norm(u_s - base - predicted), np.linalg.norm(predicted)

    g_small, step_small = gap(0.01)
    g_big, _ = gap(0.02)
    assert g_small < 0.05 * step_small  # remainder is higher order
    assert 3.0 < g_big / g_small < 5.0  # and scales like s^2


def recorded_solves(monkeypatch):
    """Route the oracle module's state solves through a recorder.

    Each entry is (warm-started, Newton iterations).
    """
    calls = []

    def recording(*args, **kwargs):
        out = solve_state(*args, **kwargs)
        calls.append((kwargs.get("u0") is not None, out[1]))
        return out

    monkeypatch.setattr(oracle_module, "solve_state", recording)
    return calls


def test_whitened_evaluate_warm_start_finds_the_cold_root(monkeypatch):
    model = ReactionDiffusionModel(8)
    whitener = WhitenedMap(model)
    calls = recorded_solves(monkeypatch)
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = rng.standard_normal(model.n_m)
        got = whitener.evaluate(x)
        warm, warm_iters = calls[-1]
        m = whitener.apply(x)
        u, cold_iters = solve_state(model, m)
        want = model.qoi(m, u)
        assert warm and warm_iters < cold_iters
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_whitened_base_state_is_solved_once(monkeypatch):
    model = ReactionDiffusionModel(8)
    whitener = WhitenedMap(model)
    calls = recorded_solves(monkeypatch)
    base = whitener.base_value()
    np.testing.assert_array_equal(whitener.evaluate(np.zeros(model.n_m)), base)
    np.testing.assert_array_equal(whitener.base_value(), base)
    assert [warm for warm, _ in calls] == [False, True]
    assert calls[1][1] == 0


def test_base_point_is_solved_once_per_model(monkeypatch):
    model = ReactionDiffusionModel(6)
    calls = recorded_solves(monkeypatch)
    whitener = WhitenedMap(model)
    oracles = [make_derivative_oracle(model, k, whitener=whitener) for k in (1, 2, 3)]
    whitener.base_value()
    whitener.evaluate(np.random.default_rng(22).standard_normal(model.n_m))
    assert [warm for warm, _ in calls] == [False, True]
    engines = [oracle.engine for oracle in oracles]
    assert all(e.factor is engines[0].factor for e in engines)
    assert all(e.u0 is engines[0].u0 for e in engines)
    assert {e.newton_iterations for e in engines} == {calls[0][1]}


def test_base_state_is_read_only():
    engine = DerivativeEngine(ReactionDiffusionModel(5), 1)
    assert not engine.u0.flags.writeable
    with pytest.raises(ValueError):
        engine.u0[0] = 1.0


def test_base_point_is_dropped_with_its_model():
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    oracles = [make_derivative_oracle(model, k, whitener=whitener) for k in (1, 2, 3)]
    whitener.base_value()
    alive = weakref.ref(model)
    del model, whitener, oracles
    gc.collect()
    assert alive() is None


def counted_factorizations(monkeypatch):
    """Count ``ReactionDiffusionModel.factorize`` calls in a one-item list."""
    count = [0]
    original = ReactionDiffusionModel.factorize

    def counting(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ReactionDiffusionModel, "factorize", counting)
    return count


def criterion6_samples(dim, count):
    """Raw-space draws as ``taylor_error_stats`` makes them for criterion 6."""
    seed = int(np.random.SeedSequence((0, 9)).generate_state(1)[0])
    return [
        np.random.default_rng(np.random.SeedSequence((seed, i))).standard_normal(dim)
        for i in range(count)
    ]


def assert_solves(model, m, u):
    target = 1e-10 * max(1.0, np.linalg.norm(model.rho))
    assert np.linalg.norm(model.residual(m, u)) < target
    cold, _ = solve_state(model, m)
    assert np.linalg.norm(u - cold) <= 1e-9 * np.linalg.norm(cold)


@pytest.mark.parametrize("n", [8, 12])
def test_whitened_samples_keep_the_base_lu(monkeypatch, n):
    model = ReactionDiffusionModel(n)
    whitener = WhitenedMap(model)
    u0, _, lu = oracle_module._base_point(model)
    xs = criterion6_samples(model.n_m, 20)
    factorizations = counted_factorizations(monkeypatch)
    outputs = [whitener.evaluate(x) for x in xs]
    states = [solve_state(model, whitener.apply(x), u0=u0, lu=lu) for x in xs]
    assert factorizations[0] == 0
    monkeypatch.undo()
    for x, got, (u, iters) in zip(xs, outputs, states):
        m = whitener.apply(x)
        np.testing.assert_array_equal(got, model.qoi(m, u))
        assert_solves(model, m, u)
        assert 0 < iters < solve_state(model, m)[1]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("amplitude", [10.0, 30.0])
def test_kept_lu_that_stalls_is_replaced(monkeypatch, amplitude, n):
    # far beyond the usual amplitude refinement on the base LU stops halving
    # the linear residual; the solve factorizes at the iterate, refines on
    # that LU from then on, and still converges
    model = ReactionDiffusionModel(n)
    whitener = WhitenedMap(model)
    u0, _, lu = oracle_module._base_point(model)
    x = amplitude * np.random.default_rng(0).standard_normal(model.n_m)
    m = whitener.apply(x)
    kept_solves = []

    class CountingLU:
        def solve(self, b):
            kept_solves.append(True)
            return lu.solve(b)

    factorizations = counted_factorizations(monkeypatch)
    u, iters = solve_state(model, m, u0=u0, lu=CountingLU())
    assert kept_solves and 0 < factorizations[0] < iters
    monkeypatch.undo()
    assert_solves(model, m, u)
    np.testing.assert_array_equal(whitener.evaluate(x), model.qoi(m, u))


def test_cold_solve_factorizes_fewer_times_than_it_steps(monkeypatch):
    factorizations = counted_factorizations(monkeypatch)
    # the base point at n=8: five Newton steps on two factorizations, plus
    # the base LU itself
    assert oracle_module._base_point(ReactionDiffusionModel(8))[1] == 5
    assert factorizations[0] == 3
    model = ReactionDiffusionModel(6)
    m = 0.2 * np.random.default_rng(24).standard_normal(model.n_m)
    factorizations[0] = 0
    _, iters = solve_state(model, m)
    assert 0 < factorizations[0] < iters


def test_each_distinct_direction_is_smoothed_once_per_cache(monkeypatch):
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    rng = np.random.default_rng(25)
    p1, p2, p3 = (rng.standard_normal(model.n_m) for _ in range(3))
    q = rng.standard_normal(model.n_q)
    calls = [
        (4, [p1, p2, p2]),
        (4, [p2, p3, p1]),  # p1 and p2 are cached
        (1, [p3, p3, q]),  # p3 is; the free slot's output is smoothed too
        (4, [p1, p1, p1]),  # p1 is still cached two actions later
    ]
    # the same actions on an unwhitened oracle, smoothing done outside it
    plain = make_derivative_oracle(model, 3)
    want = []
    for mode, vectors in calls:
        if mode == 4:
            want.append(plain.action(4, [whitener.apply(v) for v in vectors]))
        else:
            ps = [whitener.apply(v) for v in vectors[:2]]
            want.append(whitener.apply(plain.action(mode, ps + vectors[2:])))
    smoothed = []
    original = WhitenedMap.apply

    def recording(self, x):
        smoothed.append(True)
        return original(self, x)

    monkeypatch.setattr(WhitenedMap, "apply", recording)
    oracle = make_derivative_oracle(model, 3, whitener=whitener)
    counts = []
    for (mode, vectors), expected in zip(calls, want):
        np.testing.assert_array_equal(oracle.action(mode, vectors), expected)
        counts.append(len(smoothed))
    assert counts == [2, 3, 4, 4]
    # clearing the cache drops the smoothed directions with the lattice nodes
    oracle.clear_cache()
    mode, vectors = calls[0]
    np.testing.assert_array_equal(oracle.action(mode, vectors), want[0])
    assert len(smoothed) == 6


@pytest.mark.parametrize("method,kind", [("solve", "u"), ("solve_t", "l")])
def test_failed_solve_caches_nothing(monkeypatch, method, kind):
    # the first forward (or adjoint) solve raises: no node of that lattice
    # may be cached, and the retry must match a fresh engine bit for bit
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(23)
    p1, p2 = rng.standard_normal(model.n_m), rng.standard_normal(model.n_m)
    q = rng.standard_normal(model.n_q)

    def act(engine):
        if method == "solve":
            return engine.output_free([p1, p2])
        return engine.mode_free([p1], q)

    engine = DerivativeEngine(model, 2)
    original = getattr(engine.factor, method)
    failed = []

    def fail_once(b):
        if not failed:
            failed.append(True)
            raise RuntimeError("planted solve failure")
        return original(b)

    monkeypatch.setattr(engine.factor, method, fail_once)
    with pytest.raises(RuntimeError, match="planted"):
        act(engine)
    assert not [key for key in engine._cache if key[0] == kind]
    got = act(engine)
    monkeypatch.undo()
    fresh = DerivativeEngine(ReactionDiffusionModel(5), 2)
    np.testing.assert_array_equal(got, act(fresh))


def fd_map_derivative(model, p, order, h):
    """Central differences of t -> F(m0 + t p, u(m0 + t p)) at t = 0."""

    def phi(t):
        m = t * p
        u, _ = solve_state(model, m)
        return model.qoi(m, u)

    if order == 1:
        return (phi(h) - phi(-h)) / (2 * h)
    if order == 2:
        return (phi(h) - 2 * phi(0.0) + phi(-h)) / h**2
    return (phi(2 * h) - 2 * phi(h) + 2 * phi(-h) - phi(-2 * h)) / (2 * h**3)


@pytest.mark.parametrize("order,h,rtol", [(1, 1e-4, 1e-7), (2, 1e-3, 1e-5), (3, 1e-2, 1e-3)])
def test_output_free_matches_finite_differences(order, h, rtol):
    model = ReactionDiffusionModel(5)
    p = np.random.default_rng(order).standard_normal(model.n_m)
    p /= np.linalg.norm(p)
    engine = DerivativeEngine(model, order)
    exact = engine.output_free([p] * order)
    approx = fd_map_derivative(model, p, order, h)
    assert np.linalg.norm(exact - approx) < rtol * max(np.linalg.norm(exact), 1.0)


def test_forward_adjoint_duality():
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(3)
    engine = DerivativeEngine(model, 3)
    p1, p2, p3 = (rng.standard_normal(model.n_m) for _ in range(3))
    q = rng.standard_normal(model.n_q)
    forward = engine.output_free([p1, p2, p3]) @ q
    adjoint = engine.mode_free([p2, p3], q) @ p1
    assert abs(forward - adjoint) < 1e-8 * max(abs(forward), 1.0)


def test_permutation_symmetry():
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(4)
    engine = DerivativeEngine(model, 3)
    dirs = [rng.standard_normal(model.n_m) for _ in range(3)]
    base = engine.output_free(dirs)
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        other = engine.output_free([dirs[i] for i in perm])
        assert np.linalg.norm(other - base) < 1e-10 * max(np.linalg.norm(base), 1.0)


def test_forward_solve_counts():
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(5)
    a, b, c = (rng.standard_normal(model.n_m) for _ in range(3))
    engine = DerivativeEngine(model, 3)

    engine.output_free([a, a, a])  # symmetric chain: 3 nodes beyond the state
    assert engine.forward_solves == 3
    engine.output_free([a, a, a])  # fully cached
    assert engine.forward_solves == 3

    engine.clear_cache()
    engine.forward_solves = 0
    engine.output_free([a, b, c])  # distinct: full lattice, 2^3 - 1 nodes
    assert engine.forward_solves == 7

    engine.clear_cache()
    engine.forward_solves = 0
    engine.output_free([a, a, b])  # multiplicities (2, 1): (2+1)(1+1) - 1 nodes
    assert engine.forward_solves == 5
    engine.output_free([a, b, b])  # shares a, b, ab; adds bb and abb
    assert engine.forward_solves == 7


def test_mode_free_solve_counts():
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(6)
    engine = DerivativeEngine(model, 3)
    p2, p3 = rng.standard_normal(model.n_m), rng.standard_normal(model.n_m)
    q = rng.standard_normal(model.n_q)
    engine.mode_free([p2, p3], q)
    assert engine.forward_solves == 3  # sensitivities of the two directions
    assert engine.adjoint_solves == 4  # base adjoint plus one per node
    engine.mode_free([p2, p3], q)  # same directions and weight: all cached
    assert engine.forward_solves == 3
    assert engine.adjoint_solves == 4


def test_repeated_actions_count_each_node_once():
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(7)
    dirs = [rng.standard_normal(model.n_m) for _ in range(3)]
    engine = DerivativeEngine(model, 3)
    results = [engine.output_free(dirs) for _ in range(8)]
    assert engine.forward_solves == 7
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])


def test_observation_partial_only_seeds_the_adjoint(monkeypatch):
    # the observation is linear in u and free of m, so the engine reads it
    # through qoi and calls partial_f only for the adjoint seed, once per
    # distinct weight q
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(8)
    a, b, c = (rng.standard_normal(model.n_m) for _ in range(3))
    q1, q2 = rng.standard_normal(model.n_q), rng.standard_normal(model.n_q)
    calls = []
    original = ReactionDiffusionModel.partial_f

    def spy(self, m, u, weight):
        calls.append(weight.tobytes())
        return original(self, m, u, weight)

    monkeypatch.setattr(ReactionDiffusionModel, "partial_f", spy)
    engine = DerivativeEngine(model, 3)
    engine.output_free([a, b, c])
    engine.output_free([a, a, b])
    assert calls == []
    for dirs, q in (([a, b], q1), ([b, b], q1), ([a, c], q2), ([a, b], q2)):
        engine.mode_free(dirs, q)
    assert calls == [q1.tobytes(), q2.tobytes()]


def test_engine_validation():
    model = ReactionDiffusionModel(5)
    with pytest.raises(ShapeError):
        DerivativeEngine(model, 0)
    engine = DerivativeEngine(model, 2)
    with pytest.raises(ShapeError):
        engine.output_free([np.zeros(model.n_m)])
    with pytest.raises(ShapeError):
        engine.mode_free([np.zeros(model.n_m)], np.zeros(3))
    # directions are checked once, at the engine boundary, before any solve
    short = np.ones(model.n_m - 1)
    with pytest.raises(ShapeError):
        engine.output_free([np.ones(model.n_m), short])
    with pytest.raises(ShapeError):
        engine.mode_free([short], np.ones(model.n_q))
    assert engine.forward_solves == engine.adjoint_solves == 0


def test_whitener_is_symmetric_and_smooths():
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    basis = np.eye(model.n_m)
    smoother = np.column_stack([whitener.apply(basis[:, i]) for i in range(model.n_m)])
    np.testing.assert_allclose(smoother, smoother.T, atol=1e-12)
    # evaluate composes smoothing, state solve, observation
    x = np.random.default_rng(8).standard_normal(model.n_m)
    m = whitener.apply(x)
    u, _ = solve_state(model, m)
    np.testing.assert_allclose(whitener.evaluate(x), model.qoi(m, u), atol=1e-12)
    np.testing.assert_allclose(whitener.base_value(), whitener.evaluate(np.zeros(model.n_m)), atol=1e-12)


def test_oracle_shapes_and_output_mode():
    model = ReactionDiffusionModel(5)
    oracle = make_derivative_oracle(model, 2)
    assert oracle.dims == (model.n_m, model.n_m, model.n_q)
    rng = np.random.default_rng(9)
    p1, p2 = rng.standard_normal(model.n_m), rng.standard_normal(model.n_m)
    np.testing.assert_array_equal(
        oracle.action(3, [p1, p2]), oracle.engine.output_free([p1, p2])
    )
    assert oracle.action_count == 1


def test_oracle_derivative_modes_are_symmetric():
    model = ReactionDiffusionModel(5)
    oracle = make_derivative_oracle(model, 3)
    rng = np.random.default_rng(10)
    p2, p3 = rng.standard_normal(model.n_m), rng.standard_normal(model.n_m)
    q = rng.standard_normal(model.n_q)
    first = oracle.action(1, [p2, p3, q])
    second = oracle.action(2, [p2, p3, q])
    third = oracle.action(3, [p2, p3, q])
    np.testing.assert_allclose(first, second, atol=1e-11)
    np.testing.assert_allclose(first, third, atol=1e-11)


@pytest.mark.parametrize("order", [2, 3])
def test_whitened_oracle_duality(order):
    # <T_w(p_1, ..., p_k, .), q> = <T_w(., p_2, ..., p_k, q), p_1>: the
    # forward path smooths p_1 on the way in, the adjoint path smooths its
    # free-slot output on the way out
    model = ReactionDiffusionModel(5)
    oracle = make_derivative_oracle(model, order, whitener=WhitenedMap(model))
    rng = np.random.default_rng(26)
    ps = [rng.standard_normal(model.n_m) for _ in range(order)]
    q = rng.standard_normal(model.n_q)
    forward = oracle.action(order + 1, ps) @ q
    adjoint = oracle.action(1, ps[1:] + [q]) @ ps[0]
    assert abs(forward - adjoint) <= 1e-11 * abs(forward)


def test_whitened_oracle_transpose_consistency():
    # order 1: the whitened derivative is a matrix; freeing either mode
    # must give that matrix and its transpose
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    oracle = make_derivative_oracle(model, 1, whitener=whitener)
    rows = np.column_stack(
        [oracle.action(2, [np.eye(model.n_m)[:, i]]) for i in range(model.n_m)]
    )  # (n_q, n_m): column i is T(e_i, .)
    cols = np.column_stack(
        [oracle.action(1, [np.eye(model.n_q)[:, i]]) for i in range(model.n_q)]
    )  # (n_m, n_q): column i is T(., e_i)
    np.testing.assert_allclose(rows, cols.T, atol=1e-11)
