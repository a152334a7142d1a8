"""The lockstep state solve: block columns against the per-vector reference.

``solve_state`` runs one Newton loop over a column block.  Each column must
keep the bits of the per-vector loop in ``newton_reference`` (state and step
count) wherever multi-RHS LU solves match single ones, which holds through
n = 16; at n = 32 the block solve agrees to roundoff.  Refusals name the
column, and a column that stalls alone stalls in a block.
"""

import warnings

import numpy as np
import pytest

import newton_reference
from ttaction.errors import NewtonError
from ttaction.hovd import ReactionDiffusionModel, WhitenedMap, solve_state
from ttaction.hovd import oracle as oracle_module

AMPLITUDES = (0.3, 1.0, 3.0, 10.0)


def whitened_draws(model, amplitudes=AMPLITUDES, draws=range(20)):
    """Whitened parameters ``a * N(0, I)``, mixed by a fixed permutation."""
    whitener = WhitenedMap(model)
    ms = [
        whitener.apply(a * np.random.default_rng(d).standard_normal(model.n_m))
        for a in amplitudes
        for d in draws
    ]
    order = np.random.default_rng(99).permutation(len(ms))
    return [ms[i] for i in order]


def start(model, warm):
    """Keyword arguments of a warm solve (base state and LU) or a cold one."""
    if not warm:
        return {}
    u0, _, lu = oracle_module._base_point(model)
    return {"u0": u0, "lu": lu}


def block_solves(model, ms, width, kwargs):
    """Columns and summed steps of ``ms`` solved in blocks of ``width``."""
    columns, steps = [], 0
    for s in range(0, len(ms), width):
        u, k = solve_state(model, np.stack(ms[s : s + width], axis=1), **kwargs)
        assert type(k) is int
        columns += list(u.T)
        steps += k
    return columns, steps


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_block_columns_keep_the_bits_of_the_per_vector_loop(n, warm):
    model = ReactionDiffusionModel(n)
    ms = whitened_draws(model)
    kwargs = start(model, warm)
    want = [newton_reference.solve_state(model, m, **kwargs) for m in ms]
    for s in range(0, len(ms), 16):
        u, steps = solve_state(model, np.stack(ms[s : s + 16], axis=1), **kwargs)
        assert u.shape == (model.n_u, 16)
        assert steps == sum(k for _, k in want[s : s + 16])
        for j, (ref, _) in enumerate(want[s : s + 16]):
            np.testing.assert_array_equal(u[:, j], ref)
    # a vector is the block of one column
    u, steps = solve_state(model, ms[0], **kwargs)
    assert u.shape == (model.n_u,)
    np.testing.assert_array_equal(u, want[0][0])
    assert steps == want[0][1]


def test_splitting_and_reordering_columns_keeps_their_bits():
    model = ReactionDiffusionModel(8)
    ms = whitened_draws(model, draws=range(10))
    kwargs = start(model, warm=True)
    columns, steps = block_solves(model, ms, 16, kwargs)
    for width in (1, 3, len(ms)):
        got, got_steps = block_solves(model, ms, width, kwargs)
        assert got_steps == steps
        for a, b in zip(got, columns):
            np.testing.assert_array_equal(a, b)
    reversed_columns, reversed_steps = block_solves(model, ms[::-1], 7, kwargs)
    assert reversed_steps == steps
    for a, b in zip(reversed_columns[::-1], columns):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_block_agrees_to_roundoff_where_multi_rhs_solves_move_bits(warm):
    # from n = 32 on a multi-RHS forward solve differs from single ones by
    # about 1e-16, so the block is held to 1e-12 and to the same step total
    model = ReactionDiffusionModel(32)
    ms = whitened_draws(model, draws=range(4))
    kwargs = start(model, warm)
    want = [newton_reference.solve_state(model, m, **kwargs) for m in ms]
    columns, steps = block_solves(model, ms, 16, kwargs)
    assert steps == sum(k for _, k in want)
    for got, (ref, _) in zip(columns, want):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("n", [4, 8])
def test_columns_from_far_starts_backtrack_on_their_own(n, warm):
    # starts at -3 and 0.05 make the line search shorten some steps (the
    # whitened draws above never do), so a block mixes columns that
    # backtrack with columns that take full steps; each keeps its own
    # step length and its bits
    model = ReactionDiffusionModel(n)
    ms = whitened_draws(model, amplitudes=(1.0, 3.0), draws=range(4))
    levels = (-3.0, 0.05, 10.0, None)
    starts = [
        np.cbrt(model.rho) if s is None else np.full(model.n_u, s)
        for s in levels * (len(ms) // len(levels))
    ]
    lu = start(model, warm).get("lu")
    want = [newton_reference.solve_state(model, m, u0=u, lu=lu) for m, u in zip(ms, starts)]
    u, steps = solve_state(model, np.stack(ms, axis=1), u0=np.stack(starts, axis=1), lu=lu)
    assert steps == sum(k for _, k in want)
    for j, (ref, _) in enumerate(want):
        np.testing.assert_array_equal(u[:, j], ref)


def three_columns(model):
    m = np.stack(whitened_draws(model, amplitudes=(1.0,), draws=range(3)), axis=1)
    return m, np.repeat(np.cbrt(model.rho)[:, None], 3, axis=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["m", "u0"])
def test_a_non_finite_column_is_refused_by_name_before_any_residual(
    monkeypatch, where, bad
):
    model = ReactionDiffusionModel(5)
    m, u0 = three_columns(model)
    (m if where == "m" else u0)[7, 2] = bad
    residuals = []
    monkeypatch.setattr(model, "residual", lambda *args: residuals.append(args))
    message = f"^non-finite {where} in column 2: 1 of 25 entries, the first {bad} at index 7$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match=message):
            solve_state(model, m, u0=u0)
    assert residuals == []


def test_an_overflowing_start_column_is_refused_by_name():
    model = ReactionDiffusionModel(5)
    m, u0 = three_columns(model)
    u0[:, 1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match="^non-finite residual at the start in column 1 "):
            solve_state(model, m, u0=u0)


def test_a_column_out_of_iterations_is_named():
    model = ReactionDiffusionModel(5)
    m, _ = three_columns(model)
    with pytest.raises(NewtonError, match="^no convergence in 1 iterations in column 0 "):
        solve_state(model, m, max_iter=1)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_a_column_that_stalls_alone_stalls_in_a_block(warm):
    # the known stall of the stopping target (n = 4, amplitude 30, draw 18):
    # alone it raises at a residual above the target; in the middle of a
    # block of good columns it raises at the same residual, named
    model = ReactionDiffusionModel(4)
    whitener = WhitenedMap(model)
    stall = whitener.apply(30.0 * np.random.default_rng(18).standard_normal(model.n_m))
    kwargs = start(model, warm)
    with pytest.raises(NewtonError) as alone:
        newton_reference.solve_state(model, stall, **kwargs)
    assert str(alone.value).startswith("line search stalled (residual ")
    residual = str(alone.value).removeprefix("line search stalled ")
    with pytest.raises(NewtonError) as vector:
        solve_state(model, stall, **kwargs)
    assert str(vector.value) == str(alone.value)
    m, _ = three_columns(model)
    m[:, 1] = stall
    with pytest.raises(NewtonError) as block:
        solve_state(model, m, **kwargs)
    assert str(block.value) == f"line search stalled in column 1 {residual}"


def test_whitened_block_evaluates_in_one_solve_bitwise_as_its_columns(monkeypatch):
    model = ReactionDiffusionModel(8)
    whitener = WhitenedMap(model)
    xs = np.random.default_rng(5).standard_normal((model.n_m, 5))
    singles = [whitener.evaluate(xs[:, j].copy()) for j in range(5)]
    smoothed = whitener.apply(xs)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[1].shape)
        return solve_state(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "solve_state", recording)
    out = whitener.evaluate(xs)
    assert calls == [(model.n_m, 5)]
    assert out.shape == (model.n_q, 5)
    for j in range(5):
        np.testing.assert_array_equal(smoothed[:, j], whitener.apply(xs[:, j].copy()))
        np.testing.assert_array_equal(out[:, j], singles[j])
