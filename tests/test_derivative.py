"""Implicit-map derivative tensors: state solve, lattices, counters, oracle."""

import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest

from chain_rule_reference import per_part_sum
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["m", "u0"])
def test_solve_state_refuses_a_non_finite_start(where, bad):
    # a NaN residual compares False against the target, so unchecked it
    # would return the start as converged after no Newton step; the input
    # is refused by name before the model forms a residual, so numpy warns
    # about no inf - inf in the flux sum
    model = ReactionDiffusionModel(5)
    m, u0 = np.zeros(model.n_m), np.cbrt(model.rho)
    (m if where == "m" else u0)[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"^non-finite {where}: 1 of 25 entries, the first {bad} at index 3$"
        with pytest.raises(NewtonError, match=message):
            solve_state(model, m, u0=u0)


def test_solve_state_refuses_an_overflowing_start_without_a_warning():
    model = ReactionDiffusionModel(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match="non-finite residual"):
            solve_state(model, np.zeros(model.n_m), u0=np.full(model.n_m, 1e200))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_whitened_evaluate_refuses_a_non_finite_draw(bad):
    # evaluate smooths a non-finite entry over the grid without a warning (an
    # inf meets inf - inf in the smoother's products); the state solve refuses m
    model = ReactionDiffusionModel(5)
    x = np.zeros(model.n_m)
    x[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match="^non-finite m: "):
            WhitenedMap(model).evaluate(x)


def test_state_solve_makes_no_partial_g_call(monkeypatch):
    # Newton's refinement sweeps apply dG/du through the edge kernel on the
    # solve's own edge factors, not through the checked partial_g
    model = ReactionDiffusionModel(6)
    u0, _, lu = oracle_module._base_point(model)
    calls, original = [], ReactionDiffusionModel.partial_g

    def spy(*args, **kwargs):
        calls.append(True)
        return original(*args, **kwargs)

    monkeypatch.setattr(ReactionDiffusionModel, "partial_g", spy)
    m = 0.2 * np.random.default_rng(25).standard_normal(model.n_m)
    _, warm = solve_state(model, m, u0=u0, lu=lu)
    _, cold = solve_state(model, m)
    assert warm > 0 and cold > 0
    assert calls == []


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
        want = model.qoi(u)
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
        np.testing.assert_array_equal(got, model.qoi(u))
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
    np.testing.assert_array_equal(whitener.evaluate(x), model.qoi(u))


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
        return model.qoi(u)

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

    def spy(self, weight):
        calls.append(weight.tobytes())
        return original(self, weight)

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
    # q is a flat vector only: an (n_q, 1) column is refused
    with pytest.raises(ShapeError):
        engine.mode_free([np.ones(model.n_m)], np.ones((model.n_q, 1)))
    assert engine.forward_solves == engine.adjoint_solves == 0


def test_whitener_and_state_solve_refuse_a_grid():
    model = ReactionDiffusionModel(5)
    whitener = WhitenedMap(model)
    grid, flat = np.zeros((model.n, model.n)), np.zeros(model.n_m)
    with pytest.raises(ShapeError):
        whitener.apply(grid)
    with pytest.raises(ShapeError):
        whitener.evaluate(grid)
    with pytest.raises(ShapeError):
        solve_state(model, grid)
    with pytest.raises(ShapeError):
        solve_state(model, flat, u0=np.ones((model.n, model.n)))


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
    np.testing.assert_allclose(whitener.evaluate(x), model.qoi(u), atol=1e-12)
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


def test_derivative_block_is_served_as_single_actions(monkeypatch):
    # a block walks the lattice one column per counted single action, so
    # its bits, action count and solve counts are those of the singles
    from ttaction.core import ActionOracle

    calls = []
    single = ActionOracle.action

    def counted(self, free_mode, vectors):
        calls.append(free_mode)
        return single(self, free_mode, vectors)

    monkeypatch.setattr(ActionOracle, "action", counted)
    model = ReactionDiffusionModel(4)
    whitener = WhitenedMap(model)
    block_oracle = make_derivative_oracle(model, 2, whitener=whitener)
    single_oracle = make_derivative_oracle(model, 2, whitener=whitener)
    rng = np.random.default_rng(44)
    width = 4
    for mode, sizes in ((3, (model.n_m, model.n_m)), (1, (model.n_m, model.n_q))):
        blocks = [rng.standard_normal((n, width)) for n in sizes]
        blocks[0][:, 3] = blocks[0][:, 1]  # a repeated direction hits the cache
        calls.clear()
        got = block_oracle.action(mode, blocks)
        assert calls == [mode] * width
        want = np.column_stack(
            [single_oracle.action(mode, [v[:, j].copy() for v in blocks]) for j in range(width)]
        )
        np.testing.assert_array_equal(got, want)
        # a one-column block and a plain vector take the same path
        for entries in (
            [rng.standard_normal((n, 1)) for n in sizes],
            [rng.standard_normal(n) for n in sizes],
        ):
            calls.clear()
            got = block_oracle.action(mode, entries)
            assert calls == [mode]
            want = single(single_oracle, mode, [v.copy() for v in entries])
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
    assert block_oracle.action_count == single_oracle.action_count == 2 * (width + 2)
    for counter in ("forward_solves", "adjoint_solves"):
        assert getattr(block_oracle.engine, counter) == getattr(single_oracle.engine, counter)


def test_broadcast_entries_are_served_without_a_whole_copy():
    # each batch index copies its own vectors; no entry is copied whole to
    # its broadcast (N, prod B) shape, which here would take 2 MiB
    import tracemalloc

    oracle = oracle_module.DerivativeOracle((64, 64, 2), lambda k, vs: np.zeros((2, 1)), None)
    rng = np.random.default_rng(45)
    lead, samples = rng.standard_normal((64, 64, 1)), rng.standard_normal((64, 1, 64))
    tracemalloc.start()
    try:
        out = oracle.action(3, [lead, samples])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 64, 64)
    assert oracle.action_count == 64 * 64
    assert peak < 64 * 64 * 64 * 8 / 4


def multisets_through(order):
    """Every direction-count vector of total order 1..``order`` and its sub-multisets."""
    from ttaction.hovd.lattice import sub_multisets

    found = set()
    for size in range(1, order + 1):
        for counts in itertools.product(range(1, order + 1), repeat=size):
            if sum(counts) <= order:
                found.update(sub_multisets(counts))
    return sorted(found)


def test_compiled_programs_reproduce_the_expansion():
    # every term of expansion(beta) that the model's zero pattern keeps, in
    # order and with its coefficient; the unknown term left out exactly once
    from ttaction.hovd.lattice import expansion

    vanishes = ReactionDiffusionModel.partial_vanishes
    betas = multisets_through(5)
    assert len(betas) > 100 and max(sum(b) for b in betas) == 5
    dropped = 0
    for beta in betas:
        terms = expansion(beta)
        unknown = (((0,) * len(beta), (beta,)), 1)
        assert terms.count(unknown) == 1
        # a forward term is one part against no adjoint
        forward = oracle_module._program(beta, beta, None, vanishes)
        assert all(len(parts) == 1 and parts[0][2] is None for _, parts in forward)
        assert [
            (tuple(np.bincount(idx, minlength=len(beta))), *parts[0][:2])
            for idx, parts in forward
        ] == [
            (j, blocks, coef)
            for (j, blocks), coef in terms
            if (j, blocks) != unknown[0] and not vanishes(sum(j), len(blocks), None)
        ]
        assert all(list(idx) == sorted(idx) for idx, _ in forward)
        dropped += len(terms) - 1 - len(forward)
        zero = (0,) * len(beta)
        for left_out, free in ((beta, "u"), (None, "m")):
            want = []
            for (j, blocks), coef in terms:
                # the term itself against the base adjoint, then one split
                # per distinct block: one copy moved, the rest in order
                parts = []
                if not vanishes(sum(j), len(blocks), free):
                    parts.append((blocks, coef, zero))
                if (left_out is None or (j, blocks) != unknown[0]) and not vanishes(
                    sum(j), len(blocks) - 1, free
                ):
                    for block in dict.fromkeys(blocks):
                        rest = list(blocks)
                        rest.remove(block)
                        parts.append((tuple(rest), coef * blocks.count(block), block))
                if parts:
                    want.append((j, tuple(parts)))
            adjoint = oracle_module._program(beta, left_out, free, vanishes)
            assert [
                (tuple(np.bincount(idx, minlength=len(beta))), parts)
                for idx, parts in adjoint
            ] == want
    assert dropped > 0


def test_engine_edge_arrays_reproduce_partial_g():
    # the engine's base-point edge arrays, direction edge means and node edge
    # differences give partial_g's bytes at the engine's base point
    model = ReactionDiffusionModel(5)
    engine = DerivativeEngine(model, 3)
    rng = np.random.default_rng(24)
    vs = [rng.standard_normal(model.n_m) for _ in range(3)]
    ws = [rng.standard_normal(model.n_u) for _ in range(3)]
    z = rng.standard_normal(model.n_u)
    means = [model.edge_means(v) for v in vs]
    dws = [model.edge_differences(w) for w in ws]
    for j in range(4):
        c = engine._edge_product(means, range(j))
        for s in range(4):
            for free in (None, "u", "m"):
                got = model.partial_edges(
                    engine.u0, engine._du0, c, j, ws[:s], dws[:s], z, free
                )
                want = model.partial_g(
                    engine.m0, engine.u0, vs[:j], ws[:s], weight=z, free=free
                )
                assert got.tobytes() == want.tobytes(), (j, s, free)


def engine_walk(order):
    """Bytes of a fixed run of output-free and mode-free actions, and its solve counts."""
    model = ReactionDiffusionModel(5)
    rng = np.random.default_rng(23)
    a, b, c, d = (rng.standard_normal(model.n_m) for _ in range(4))
    q1, q2 = (rng.standard_normal(model.n_q) for _ in range(2))
    engine = DerivativeEngine(model, order)
    out, counts = [], []
    for dirs in ([a] * order, [a, b, c, d][:order], [a, a, b, b][:order]):
        out.append(engine.output_free(dirs).tobytes())
        counts.append((engine.forward_solves, engine.adjoint_solves))
    for dirs, q in (([a, b, c], q1), ([b, b, b], q2), ([a, a, c], q1)):
        out.append(engine.mode_free(dirs[: order - 1], q).tobytes())
        counts.append((engine.forward_solves, engine.adjoint_solves))
    return out, counts


# (forward, adjoint) solves after each action of engine_walk
WALK_SOLVES = {
    2: [(2, 0), (4, 0), (4, 0), (4, 2), (4, 4), (4, 4)],
    3: [(3, 0), (9, 0), (10, 0), (10, 4), (11, 7), (11, 8)],
    4: [(4, 0), (18, 0), (22, 0), (22, 8), (23, 12), (24, 14)],
}


@pytest.mark.parametrize("whitened", [False, True], ids=["raw", "whitened"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_summed_chain_rule_matches_the_per_part_sum(order, whitened):
    # every forward, adjoint and mode-free sum of a walk, summed in edge space
    # and finished once, is the per-part sum to within 100 float64 epsilons
    # relative (2.2e-14; at most 1.1e-15 measured)
    model = ReactionDiffusionModel(5)
    engine = DerivativeEngine(model, order, WhitenedMap(model) if whitened else None)
    summed, worst = engine._sum, {}

    def both(means, beta, values, diffs, unknown, free=None, lams=None):
        got = summed(means, beta, values, diffs, unknown, free, lams)
        want = per_part_sum(engine, means, beta, values, diffs, unknown, free, lams)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        worst[free] = max(worst.get(free, 0.0), err)
        return got

    engine._sum = both
    rng = np.random.default_rng(27)
    a, b, c, d, e = (rng.standard_normal(model.n_m) for _ in range(5))
    q = rng.standard_normal(model.n_q)
    for dirs in ([a] * order, [a, b, c, d, e], [a, a, b, b, c]):
        engine.output_free(dirs[:order])
        engine.mode_free(dirs[: order - 1], q)
    assert set(worst) == {None, "u", "m"}
    assert max(worst.values()) < 100 * np.finfo(float).eps, worst


def test_a_sum_finishes_once_and_calls_no_partial_edges(monkeypatch):
    model = ReactionDiffusionModel(5)
    engine = DerivativeEngine(model, 4)  # solves the base point first
    calls = {"partial_edges": 0, "finish_edges": 0, "_sum": 0}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(ReactionDiffusionModel, "partial_edges")
    spy(ReactionDiffusionModel, "finish_edges")
    spy(DerivativeEngine, "_sum")
    rng = np.random.default_rng(28)
    a, b, c = (rng.standard_normal(model.n_m) for _ in range(3))
    engine.output_free([a, b, c, c])
    engine.mode_free([a, b, b], rng.standard_normal(model.n_q))
    assert calls["partial_edges"] == 0
    assert calls["finish_edges"] == calls["_sum"] > 0


@pytest.mark.parametrize("order", [2, 3, 4])
def test_solve_counts_and_bits_do_not_depend_on_dropped_zero_terms(monkeypatch, order):
    # the programs leave out the partials the model declares zero; that
    # changes no solve count and no bit of any action
    out, counts = engine_walk(order)
    assert counts == WALK_SOLVES[order]
    # the compiled programs are keyed by the zero pattern, so this one
    # compiles its own
    monkeypatch.setattr(
        ReactionDiffusionModel, "partial_vanishes", staticmethod(lambda j, s, free: False)
    )
    assert engine_walk(order) == (out, counts)
