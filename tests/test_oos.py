import pickle
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oos_ase import (
    ConfigError,
    EigenPairs,
    Embedding,
    FeasibilityError,
    LatentDistribution,
    OosEstimate,
    SolverError,
    ase,
    embed_matrix,
    likelihood,
    lls_oos,
    lstsq,
    ml_oos,
    procrustes,
    sample_adjacency,
    sample_latents,
    sample_oos_edges,
)
from oos_ase import oos
from oos_ase.model import as_generator

MIX = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])


def _embedding_from_positions(positions):
    """Build an Embedding directly from positions = U sqrt(S) pieces."""
    positions = np.asarray(positions, dtype=float)
    norms = np.linalg.norm(positions, axis=0)
    vectors = positions / norms
    values = norms**2
    order = np.argsort(values)[::-1]
    eig = EigenPairs(values=values[order], vectors=vectors[:, order])
    return Embedding(eig=eig)


def _ill_conditioned_embedding(n, unit_axes, seed):
    """Orthogonal columns: a constant one of norm sqrt(n)/2 (every row
    0.5), `unit_axes` random ones of norm 1, and a last random one of norm
    1e-7. The Hessian in w then has a condition above 1e12; in the frame
    v = S^{1/2} w, where the ascent runs, it stays below 1 / eps^2."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(
        np.column_stack([np.ones(n), rng.standard_normal((n, unit_axes + 1))])
    )
    q[:, 0] = np.abs(q[:, 0])
    scale = [np.sqrt(n) / 2] + [1.0] * unit_axes + [1e-7]
    return _embedding_from_positions(q * scale), rng


def _assert_kkt(emb, a, est, eps):
    """est lies in T_eps within 1e-9, and its gradient in the frame
    v = S^{1/2} w is a nonnegative combination of the outward normals of
    its active rows (rows of U), to the solver's tolerance."""
    u = emb.eig.vectors
    p = emb.positions @ est.w
    assert p.min() >= eps - 1e-9 and p.max() <= 1 - eps + 1e-9
    act_lo = p - eps <= 1e-9
    act_hi = 1 - eps - p <= 1e-9
    assert int(act_lo.sum() + act_hi.sum()) == est.active_constraints
    grad = _v_gradient(emb, a, est.w)
    residual = float(np.linalg.norm(grad))
    if est.active_constraints:
        normals = np.concatenate([u[act_lo], -u[act_hi]]).T
        residual = scipy.optimize.nnls(normals, -grad)[1]
    assert residual <= oos.TOL_PER_VERTEX * emb.n


def _v_gradient(emb, a, w):
    """Gradient of the log-likelihood in v = S^{1/2} w, at w."""
    return likelihood(emb, a, w)[1] / np.sqrt(emb.eig.values)


def _assert_within_bound(emb, a, est1, est2):
    """Two interior estimates of one input lie within grad_norm /
    sqrt(lambda_d) and |gradient in w| / lambda_d each of the maximizer
    (the bounds ml_oos's stop test gives), so within the sum of the two
    of each other, to rounding."""
    assert est1.active_constraints == est2.active_constraints == 0
    gap = np.linalg.norm(est1.w - est2.w) - 4 * np.spacing(np.abs(est1.w).max())
    lam_d = emb.eig.values[-1]
    assert gap <= (est1.grad_norm + est2.grad_norm) / np.sqrt(lam_d)
    g1, g2 = (np.linalg.norm(likelihood(emb, a, e.w)[1]) for e in (est1, est2))
    assert gap <= (g1 + g2) / lam_d


def _assert_beats_probes(emb, a, est, eps, radius, rng, hits=200):
    """est.objective is at least the log-likelihood of `hits` random
    feasible points around est.w, found in at most 100 * hits draws. A
    probe moves each w_j by at most radius_j * sqrt(n) / |x_:j|, which
    moves p by about radius_j."""
    x = emb.positions
    av = np.asarray(a, dtype=float)
    scale = np.sqrt(emb.n) / np.linalg.norm(x, axis=0)
    left = hits
    for _ in range(100 * hits):
        pt = x @ (est.w + rng.uniform(-1, 1, emb.d) * radius * scale)
        if pt.min() >= eps and pt.max() <= 1 - eps:
            val = float(av @ np.log(pt) + (1 - av) @ np.log1p(-pt))
            assert est.objective >= val - 1e-12
            left -= 1
            if not left:
                return
    raise AssertionError(f"{hits - left} of {hits} probes feasible in "
                         f"{100 * hits} draws")


def _mix_embedding(n, seed):
    x = sample_latents(MIX, n, seed=seed)
    return x, ase(sample_adjacency(x, seed=seed + 100_000), 2)


# ---------------------------------------------------------------- least squares


def test_lls_consistent_system_returns_planted_w():
    _, emb = _mix_embedding(120, seed=70)
    w0 = np.array([0.4, 0.3])
    a = emb.positions @ w0  # fractional values, all inside [0, 1]
    assert np.all((a > 0) & (a < 1))
    est = lls_oos(emb, a)
    assert est.method == "LS"
    assert np.linalg.norm(est.w - w0) <= 1e-10


def test_lls_zero_vector():
    _, emb = _mix_embedding(60, seed=71)
    est = lls_oos(emb, np.zeros(60))
    assert np.allclose(est.w, 0.0)


def test_lls_matches_generic_lstsq():
    x, emb = _mix_embedding(200, seed=72)
    a = sample_oos_edges(x, MIX.points[1], seed=73)
    closed = lls_oos(emb, a).w
    generic = lstsq(emb.positions, a.a.astype(float))
    assert np.linalg.norm(closed - generic) <= 1e-10


def test_lls_fixture_estimates_second_atom():
    # frozen draw at n=500 with the new vertex at x2 = (0.65, 0.3)
    x, emb = _mix_embedding(500, seed=74)
    a = sample_oos_edges(x, MIX.points[1], seed=75)
    est = lls_oos(emb, a)
    rot = procrustes(emb.positions, x.rows).rotation
    assert np.linalg.norm(rot.T @ est.w - MIX.points[1]) <= 0.15


def test_edge_values_reject_nan_and_out_of_range():
    _, emb = _mix_embedding(30, seed=76)
    for bad in (np.nan, -0.5, 1.5, np.inf):
        a = np.full(30, 0.5)
        a[17] = bad
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            lls_oos(emb, a)
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            ml_oos(emb, a)


def test_lls_length_mismatch():
    _, emb = _mix_embedding(30, seed=76)
    with pytest.raises(ConfigError, match="length"):
        lls_oos(emb, np.zeros(31))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(20, 150), st.integers(1, 3))
def test_lls_closed_form_equals_lstsq_property(seed, n, d):
    rng = np.random.default_rng(seed)
    dist = LatentDistribution(
        d, [(np.full(d, 0.9 / np.sqrt(d)), 0.5), (np.full(d, 0.4 / np.sqrt(d)), 0.5)]
    )
    x = sample_latents(dist, n, seed=seed)
    emb = ase(sample_adjacency(x, seed=seed + 1), d)
    a = rng.integers(0, 2, size=n).astype(float)
    assert np.linalg.norm(lls_oos(emb, a).w - lstsq(emb.positions, a)) <= 1e-10


def test_lls_cost_scales_linearly():
    # O(d^2 n) contract: doubling n must not much more than double the time
    def problem(n):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        emb = _embedding_from_positions(q * np.sqrt([4.0, 1.0]))
        a = rng.integers(0, 2, size=n).astype(float)
        lls_oos(emb, a)  # warm-up
        return emb, a

    def timed(emb, a):
        t0 = time.perf_counter()
        for _ in range(20):
            lls_oos(emb, a)
        return time.perf_counter() - t0

    # Alternate the sizes so a stretch of background load hits both,
    # rather than only whichever size happens to be timed last.
    small, large = problem(200_000), problem(400_000)
    samples = [(timed(*small), timed(*large)) for _ in range(9)]
    t1, t2 = (min(col) for col in zip(*samples))
    assert t2 / t1 < 2.6, f"t(400k)/t(200k) = {t2 / t1:.2f}"


def test_lls_peak_memory_is_the_float_copy_of_the_edge_vector():
    # the one n-sized allocation of a call on an EdgeVector is its float
    # cast: no n x d temporary, such as the positions, is made
    n = 4000
    x, emb = _gram_embedding(n, seed=3)
    a = sample_oos_edges(x, MIX.points[0], seed=4)
    lls_oos(emb, a)  # warm-up
    tracemalloc.start()
    try:
        lls_oos(emb, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 4096, peak


# ------------------------------------------------------------ estimate invariant


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_refuses_a_non_finite_entry(bad):
    for w in (np.array([0.5, bad]), [bad, 0.5], np.array([[0.5], [bad]])):
        with pytest.raises(SolverError, match="non-finite"):
            OosEstimate(w=w, method="LS")


def test_estimate_makes_other_inputs_float64_arrays():
    for w in ([1, 2], np.array([1, 2]), (0.25, 3)):
        est = OosEstimate(w=w, method="ML")
        assert type(est.w) is np.ndarray and est.w.dtype == np.float64
        assert est.w.tolist() == [float(v) for v in w]


def test_estimate_keeps_a_float64_array_as_it_is():
    w = np.array([0.25, -3.0])
    assert OosEstimate(w=w, method="LS").w is w


_FIELDS = ("w", "method", "iterations", "grad_norm", "active_constraints",
           "objective")


def _fields(est):
    return [getattr(est, name) for name in _FIELDS]


def _ml_estimate():
    # -0.0 and a subnormal entry, whose bits a float round trip would show
    return OosEstimate(np.array([-0.0, 5e-324, 0.375]), "ML", 7, 2.5e-9, 1,
                       -123.25)


def test_ls_call_enters_no_frame_beyond_its_constructor():
    """A deterministic cost guard: one lls_oos call on an EdgeVector runs
    three Python frames, itself, the edge cast and the estimate's __init__.
    A frozen dataclass adds its generated __init__ and a __post_init__."""
    x, emb = _gram_embedding(300, seed=3)
    a = sample_oos_edges(x, MIX.points[0], seed=4)
    lls_oos(emb, a)  # reads Embedding.root once, as the first call does
    entered = []

    def record(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        lls_oos(emb, a)
    finally:
        sys.setprofile(previous)
    assert entered == ["lls_oos", "_edge_values", "OosEstimate.__init__"]


def test_estimate_refuses_assignment_and_deletion():
    est = _ml_estimate()
    before = _fields(est)
    for name in _FIELDS + ("extra",):
        with pytest.raises(FrozenInstanceError, match=f"field '{name}'"):
            setattr(est, name, 1.0)
        with pytest.raises(FrozenInstanceError, match=f"field '{name}'"):
            delattr(est, name)
    assert not hasattr(est, "extra")
    assert all(x is y for x, y in zip(_fields(est), before))


def test_estimate_compares_and_hashes_by_identity():
    est = _ml_estimate()
    twin = OosEstimate(*_fields(est))
    assert est == est and est != twin and not est == twin
    assert hash(est) == hash(est) == object.__hash__(est)
    assert len({est, twin, est}) == 2


def test_estimate_pickle_round_trip_keeps_every_field_and_bit():
    for est in (_ml_estimate(), OosEstimate(np.array([0.5, 1e300]), "LS")):
        back = pickle.loads(pickle.dumps(est))
        assert type(back) is OosEstimate
        assert back.w.dtype == np.float64 and back.w.shape == est.w.shape
        assert back.w.tobytes() == est.w.tobytes()
        assert _fields(back)[1:] == _fields(est)[1:]
        with pytest.raises(FrozenInstanceError):
            back.method = "LS"


def test_estimate_by_keyword_and_by_position_agree():
    w = np.array([0.25, -3.0])
    by_name = OosEstimate(w=w, method="ML", iterations=7, grad_norm=2.5e-9,
                          active_constraints=1, objective=-123.25)
    by_place = OosEstimate(w, "ML", 7, 2.5e-9, 1, -123.25)
    assert all(x is y for x, y in zip(_fields(by_name), _fields(by_place)))
    assert _fields(OosEstimate(w, "LS")) == _fields(
        OosEstimate(method="LS", w=w)) == [w, "LS", 0, 0.0, 0, None]
    assert repr(by_place) == (
        f"OosEstimate(w={w!r}, method='ML', iterations=7, grad_norm=2.5e-09, "
        "active_constraints=1, objective=-123.25)")


# ------------------------------------------------------------------ likelihood


def test_likelihood_single_term_hand_values():
    emb = _embedding_from_positions(np.array([[1.0]]))
    value, grad, hess = likelihood(emb, np.array([1.0]), np.array([0.5]))
    assert value == pytest.approx(np.log(0.5), abs=1e-15)
    assert grad == pytest.approx(np.array([2.0]), abs=1e-12)
    assert hess == pytest.approx(np.array([[-4.0]]), abs=1e-12)


def test_likelihood_domain_error():
    emb = _embedding_from_positions(np.array([[1.0]]))
    with pytest.raises(ConfigError, match="domain"):
        likelihood(emb, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConfigError, match="domain"):
        likelihood(emb, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ConfigError, match="domain"):
        likelihood(emb, np.array([1.0]), np.array([np.nan]))


def test_likelihood_gradient_matches_finite_differences():
    x, emb = _mix_embedding(80, seed=77)
    a = sample_oos_edges(x, MIX.points[0], seed=78)
    rng = np.random.default_rng(79)
    rot = procrustes(emb.positions, x.rows).rotation
    h = 1e-6
    for _ in range(20):
        w = rot @ (MIX.points[rng.integers(2)] + rng.uniform(-0.02, 0.02, 2))
        value, grad, hess = likelihood(emb, a, w)
        fd_grad = np.empty(2)
        fd_hess = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            vp, gp, _ = likelihood(emb, a, w + e)
            vm, gm, _ = likelihood(emb, a, w - e)
            fd_grad[j] = (vp - vm) / (2 * h)
            fd_hess[:, j] = (gp - gm) / (2 * h)
        scale_g = max(1.0, np.linalg.norm(grad))
        scale_h = max(1.0, np.linalg.norm(hess))
        assert np.linalg.norm(grad - fd_grad) <= 1e-5 * scale_g
        assert np.linalg.norm(hess - 0.5 * (fd_hess + fd_hess.T)) <= 1e-4 * scale_h
        eigs = np.linalg.eigvalsh(hess)
        assert eigs[-1] <= 1e-8


# -------------------------------------------------------------------------- ML


def test_ml_boundary_maximizer_single_point():
    # one in-sample point at 1 in d=1: l(w) = log(w), maximized on
    # [0.1, 0.9] at the right endpoint
    emb = _embedding_from_positions(np.array([[1.0]]))
    est = ml_oos(emb, np.array([1.0]), eps=0.1)
    assert abs(est.w[0] - 0.9) <= 1e-8
    assert est.active_constraints == 1
    assert est.method == "ML"


def test_ml_interior_stationarity_against_grid_search():
    x, emb = _mix_embedding(50, seed=80)
    a = sample_oos_edges(x, MIX.points[0], seed=81)
    est = ml_oos(emb, a, eps=0.05)
    assert est.active_constraints == 0
    assert est.grad_norm <= 1e-8 * 50

    # dense grid over a feasible slab around the reported maximizer
    step = 1e-3
    g = np.arange(-0.05, 0.05 + step / 2, step)
    ww = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2) + est.w
    p = emb.positions @ ww.T
    feas = (p.min(axis=0) >= 0.05) & (p.max(axis=0) <= 0.95)
    ww, p = ww[feas], p[:, feas]
    av = a.a.astype(float)
    vals = av @ np.log(p) + (1 - av) @ np.log1p(-p)
    assert est.objective >= vals.max() - 1e-9
    assert np.linalg.norm(ww[np.argmax(vals)] - est.w) <= step * np.sqrt(2) + 1e-12


def test_ml_close_to_ls_on_fixture_trial():
    x, emb = _mix_embedding(500, seed=82)
    a = sample_oos_edges(x, MIX.points[0], seed=83)
    ls = lls_oos(emb, a)
    ml = ml_oos(emb, a)
    assert np.linalg.norm(ml.w - ls.w) <= 0.1


def test_ml_noiseless_recovery():
    x = sample_latents(MIX, 100, seed=84).rows
    emb = embed_matrix(x @ x.T, 2)
    w0 = procrustes(emb.positions, x).rotation @ MIX.points[0]
    a = emb.positions @ w0
    ls = lls_oos(emb, a)
    ml = ml_oos(emb, a)
    assert np.linalg.norm(ls.w - w0) <= 1e-8
    assert np.linalg.norm(ml.w - w0) <= 1e-8


def test_ml_empty_box_raises():
    # rows pointing in opposite directions make eps <= x_i^T w infeasible
    emb = _embedding_from_positions(
        np.array([[np.sqrt(0.5)], [-np.sqrt(0.5)]])
    )
    with pytest.raises(FeasibilityError, match="empty"):
        ml_oos(emb, np.array([1.0, 0.0]), eps=0.1)


def test_ml_eps_validation():
    _, emb = _mix_embedding(30, seed=85)
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ConfigError):
            ml_oos(emb, np.zeros(30), eps=bad)


def test_ml_feasible_start_from_infeasible_ls():
    # all-ones edge vector pushes the LS estimate outside the box; the
    # solver must recover via the interior point and still converge
    x, emb = _mix_embedding(200, seed=86)
    est = ml_oos(emb, np.ones(200), eps=0.05)
    p = emb.positions @ est.w
    assert p.min() >= 0.05 - 1e-9 and p.max() <= 0.95 + 1e-9


def test_ml_iteration_budget_respected(monkeypatch):
    x, emb = _mix_embedding(150, seed=87)
    a = sample_oos_edges(x, MIX.points[1], seed=88)
    from oos_ase import NonConvergenceError

    monkeypatch.setattr(oos, "TOL_PER_VERTEX", 1e-300 / 150)
    monkeypatch.setattr(oos, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError) as exc:
        ml_oos(emb, a)
    assert exc.value.iterations == 3
    assert exc.value.last_w is not None


def test_ml_stops_at_rounding_floor_under_tight_tolerance(monkeypatch):
    # At tol = 1e-13 n the interior ascent used to stall on some of these
    # vertices: near the optimum Armijo compared gains below the rounding
    # of a -650 objective, kept accepting steps that changed nothing and
    # ran out its 500 iterations (projected gradients 1.6e-10..2.8e-8).
    n = 1000
    rng = as_generator(1)
    lat = sample_latents(MIX, n + 20, rng)
    x, held = lat.rows[:n], lat.rows[n:]
    emb = ase(sample_adjacency(x, rng), 2)
    floor_stops = 0
    for wbar in held:
        a = sample_oos_edges(x, wbar, rng)
        with monkeypatch.context() as m:
            m.setattr(oos, "TOL_PER_VERTEX", 1e-13)
            tight = ml_oos(emb, a)
        assert tight.iterations <= 10
        assert tight.active_constraints == 0
        assert np.max(np.abs(tight.w - ml_oos(emb, a).w)) <= 1e-10
        # the reported gradient norm is the true one in v, even above tol;
        # recomputed from w it agrees to rounding (w = v / sqrt(lambda) does
        # not give back v's bits), far below tol = 1e-10
        grad = _v_gradient(emb, a, tight.w)
        assert abs(tight.grad_norm - float(np.linalg.norm(grad))) <= 1e-13
        floor_stops += tight.grad_norm > 1e-13 * n
    assert floor_stops


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_ml_interior_estimates_lie_within_the_stop_test_bound(monkeypatch, n):
    # a run at tol = 1e-13 n stands in for the maximizer; the bounds hold
    # for interior estimates, which 10 or more of these 20 are. Default
    # runs mostly end on the rounding floor at the tight run's point, so a
    # run at tol = 1e-4 n, which stops short of it, puts the bounds to work
    x, emb = _gram_embedding(n, seed=3)
    interior = 0
    for seed in range(20):
        a = sample_oos_edges(x, MIX.points[seed % 2], seed=seed)
        est = ml_oos(emb, a)
        if est.active_constraints:
            continue
        runs = {}
        for tol in (1e-13, 1e-4):
            with monkeypatch.context() as m:
                m.setattr(oos, "TOL_PER_VERTEX", tol)
                runs[tol] = ml_oos(emb, a)
        _assert_within_bound(emb, a, runs[1e-13], est)
        _assert_within_bound(emb, a, runs[1e-13], runs[1e-4])
        interior += 1
    assert interior >= 10


def test_ml_settles_an_embedding_whose_every_axis_is_weak():
    # p = U v does not read the eigenvalues, so neither does the ascent in
    # v. Scaled by 1e-14 they shrink the gradient in w by 1e-7, and only the
    # stop test in v keeps the start from passing as stationary
    x, emb = _gram_embedding(200, seed=0)
    values, vectors = emb.eig.values * 1e-14, emb.eig.vectors
    weak = Embedding(eig=EigenPairs(values=values, vectors=vectors))
    for seed in (1, 2):
        a = sample_oos_edges(x, MIX.points[seed % 2], seed=seed)
        est = ml_oos(weak, a)
        assert est.active_constraints == 0
        _assert_kkt(weak, a, est, 0.05)
        assert abs(est.objective - ml_oos(emb, a).objective) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 4),
       st.floats(0.05, 0.45), st.floats(0.0, 1.0), st.booleans())
def test_v_hessian_is_at_most_minus_identity(seed, n, d, eps, reach, binary):
    # each curvature weight a_i / p_i^2 + (1 - a_i) / (1 - p_i)^2 is >= 1
    # for a_i in [0, 1] and p_i in (0, 1), so with orthonormal U the Hessian
    # in v is <= -I: ml_oos takes its Newton steps without checking them
    d = min(d, n)
    rng = np.random.default_rng(seed)
    # U spans the constant vector, so p = 1/2 + (a vector in its span) is
    # a point U v of the box T_eps
    q, _ = np.linalg.qr(
        np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    )
    u = q @ np.linalg.qr(rng.standard_normal((d, d)))[0]
    dev = q @ rng.standard_normal(d)
    dev *= (0.5 - eps) * reach / np.abs(dev).max()
    p = u @ (u.T @ (0.5 + dev))
    a = rng.integers(0, 2, n).astype(float) if binary else rng.uniform(0, 1, n)
    hess = oos._hessian(u, a, 1.0 - a, p)
    assert np.linalg.eigvalsh(hess).max() <= -1.0 + 1e-12


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_ml_small_eps_gives_a_feasible_kkt_point(eps):
    # the curvature weights reach 1 / eps^2, yet H_v <= -I still holds, so
    # Newton needs no guard for small eps
    for n in (100, 500):
        x, emb = _mix_embedding(n, seed=n)
        off_model = sample_oos_edges(x, (0.95, 0.05), seed=n + 1)
        for a in (np.ones(n), np.zeros(n), off_model):
            _assert_kkt(emb, a, ml_oos(emb, a, eps=eps), eps)


def test_ml_feasibility_and_dominates_random_probes():
    rng = np.random.default_rng(90)
    for seed in (91, 92, 93):
        x, emb = _mix_embedding(120, seed=seed)
        a = sample_oos_edges(x, MIX.points[seed % 2], seed=seed + 10)
        est = ml_oos(emb, a, eps=0.05)
        p = emb.positions @ est.w
        assert p.min() >= 0.05 - 1e-9 and p.max() <= 0.95 + 1e-9
        # the reported objective beats 100 random feasible probes
        hits = 0
        while hits < 100:
            w_try = est.w + rng.uniform(-0.2, 0.2, size=2)
            pt = emb.positions @ w_try
            if pt.min() >= 0.05 and pt.max() <= 0.95:
                av = a.a.astype(float)
                val = float(av @ np.log(pt) + (1 - av) @ np.log1p(-pt))
                assert est.objective >= val - 1e-12
                hits += 1


def test_ml_tangent_cone_step_leaves_a_face_with_no_free_direction():
    # T_0.1 is 0.2 <= w <= 0.9 here. The LS start sits 5e-10 below 0.9,
    # within the active tolerance, and the gradient there points back into
    # the box. A face of a 1-D box has no free direction, so only the
    # tangent-cone step can leave it.
    emb = _embedding_from_positions(np.array([[1.0], [0.5]]))
    a = np.array([0.8, 0.65]) - 5e-10 * np.array([1.0, 0.5])
    start = lls_oos(emb, a).w
    assert 0.0 < 0.9 - start[0] <= 1e-9
    assert likelihood(emb, a, start)[1][0] < 0.0
    est = ml_oos(emb, a, eps=0.1)
    _assert_kkt(emb, a, est, 0.1)
    grid = np.linspace(0.2, 0.9, 70_001)
    p = emb.positions @ grid[None, :]
    vals = a @ np.log(p) + (1 - a) @ np.log1p(-p)
    assert est.objective >= vals.max() - 1e-12


def test_ml_newton_in_the_interior_of_an_ill_conditioned_embedding():
    emb, rng = _ill_conditioned_embedding(200, 0, seed=5)
    a = rng.integers(0, 2, size=200).astype(float)
    est = ml_oos(emb, a)
    eigs = np.linalg.eigvalsh(likelihood(emb, a, est.w)[2])
    assert eigs[0] / eigs[-1] > 1e12
    assert est.active_constraints == 0
    _assert_kkt(emb, a, est, 0.05)
    _assert_beats_probes(emb, a, est, 0.05, 0.05, np.random.default_rng(6))


def _weak_face_problem():
    # a = 1 exactly where the unit column is positive pulls p past the box,
    # and the maximizer lies on a face that holds the 1e-7 direction
    emb, _ = _ill_conditioned_embedding(200, 1, seed=0)
    return emb, (emb.positions[:, 1] > 0).astype(float)


def test_ml_newton_on_an_ill_conditioned_face():
    emb, a = _weak_face_problem()
    est = ml_oos(emb, a)
    assert est.active_constraints >= 1
    _assert_kkt(emb, a, est, 0.05)
    _assert_beats_probes(emb, a, est, 0.05, 0.05, np.random.default_rng(7))


def test_ml_reaches_the_maximum_along_a_weak_axis():
    # the 1e-7 axis adds at most 1e-7 of the gradient in w, so steps and
    # tests in w barely see it; in v, where the Hessian is <= -I, Newton
    # reaches the maximum along it
    emb, a = _weak_face_problem()
    est = ml_oos(emb, a)
    _assert_beats_probes(emb, a, est, 0.05, 0.01, np.random.default_rng(8))


def test_ml_2d_placement_ending_on_one_face():
    # w-bar far from both atoms puts the maximizer outside the box
    x, emb = _mix_embedding(100, seed=82)
    a = sample_oos_edges(x, (0.95, 0.05), seed=132)
    est = ml_oos(emb, a)
    assert est.active_constraints == 1
    _assert_kkt(emb, a, est, 0.05)

    # dense grid over a feasible slab around the reported maximizer
    step = 1e-3
    g = np.arange(-0.05, 0.05 + step / 2, step)
    ww = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2) + est.w
    p = emb.positions @ ww.T
    feas = (p.min(axis=0) >= 0.05) & (p.max(axis=0) <= 0.95)
    av = a.a.astype(float)
    vals = av @ np.log(p[:, feas]) + (1 - av) @ np.log1p(-p[:, feas])
    assert est.objective >= vals.max() - 1e-9


# ------------------------------------------------------ ML work and exact bits


def _gram_embedding(n, seed):
    """The embedding of P = Y Y^T, for rows Y of MIX plus N(0, 0.03^2)
    noise, rotated by the eigenvectors of the 2 x 2 Gram Y^T Y. No
    n-sized eigensolver runs, whose bits vary with the BLAS threads."""
    x = sample_latents(MIX, n, seed=seed)
    noisy = x.rows + 0.03 * np.random.default_rng(seed).standard_normal((n, 2))
    _, rot = np.linalg.eigh(noisy.T @ noisy)
    return x, _embedding_from_positions(noisy @ rot)


def _golden_problems():
    """(path, embedding, edge values, eps): one input per path of the ascent."""
    x, emb = _gram_embedding(500, seed=0)
    yield "interior Newton", emb, sample_oos_edges(x, MIX.points[0], seed=100), 0.05
    x, emb = _gram_embedding(200, seed=1)
    yield "rounding floor", emb, sample_oos_edges(x, MIX.points[0], seed=1002), 0.05
    yield "Chebyshev start", _gram_embedding(200, seed=0)[1], np.ones(200), 0.05
    x, emb = _gram_embedding(100, seed=0)
    yield "one face", emb, sample_oos_edges(x, (0.95, 0.05), seed=132), 0.2
    emb = _embedding_from_positions(np.array([[1.0], [0.5]]))
    yield "tangent cone", emb, np.array([0.8, 0.65]) - 5e-10 * np.array([1.0, 0.5]), 0.1
    emb, rng = _ill_conditioned_embedding(200, 0, seed=5)
    yield "weak axis, interior", emb, rng.integers(0, 2, size=200).astype(float), 0.05
    yield ("weak axis, face", *_weak_face_problem(), 0.05)


# float.hex of w, objective and grad_norm, then iterations and active rows
GOLDEN_ML = {
    "interior Newton": (
        ["0x1.463b4d87cc5a7p-1", "0x1.646a32730598cp-2"],
        "-0x1.4a6f463e223e4p+8", "0x1.b8807013b8c9ep-31", 3, 0),
    "rounding floor": (
        ["-0x1.38b3aa292385dp-1", "-0x1.9331d2a783ed7p-2"],
        "-0x1.0640e965cadb1p+7", "0x1.d927a11ace7a7p-21", 2, 0),
    "Chebyshev start": (
        ["0x1.5013688483fb2p+0", "0x1.8b4b722be10fdp-4"],
        "-0x1.e5bc2de326a68p+4", "0x1.1000000000000p-51", 13, 2),
    "one face": (
        ["0x1.9818b59c4b1a1p-1", "-0x1.812adb9f8b74fp-1"],
        "-0x1.bff0b1f007490p+5", "0x1.71f043f80fe6dp-29", 10, 1),
    "tangent cone": (
        ["0x1.b63b9f6209d41p-1"],
        "-0x1.4254904c9e006p+0", "0x1.41b24c2006006p-45", 6, 0),
    "weak axis, interior": (
        ["0x1.e6757faa3d5b5p-1", "-0x1.5791ebc656e79p+21"],
        "-0x1.1470454c93e24p+7", "0x1.20faf513bda50p-20", 2, 0),
    "weak axis, face": (
        ["0x1.e150f98dd90d0p-1", "0x1.23147590d599ep+1", "-0x1.ea4c882fa0bbbp+22"],
        "-0x1.7b2a541e5f812p+6", "0x1.076f8ba6187cfp-24", 21, 2),
}


def test_ml_estimates_keep_their_golden_bits():
    # exact bits pin every path of the ascent, so a change to its work
    # (what it evaluates, and when) cannot move a result unseen
    for name, emb, a, eps in _golden_problems():
        est = ml_oos(emb, a, eps=eps)
        got = (
            [float(v).hex() for v in est.w],
            float(est.objective).hex(),
            float(est.grad_norm).hex(),
            est.iterations,
            est.active_constraints,
        )
        assert got == GOLDEN_ML[name], name


# float.hex of lls_oos(...).w, for the edge values of three golden problems
GOLDEN_LS = {
    "interior Newton": ["0x1.46e1ecea94088p-1", "0x1.62334a48756e6p-2"],
    "Chebyshev start": ["0x1.85ee9a5cc3537p+0", "0x1.bef21d6db12d5p-5"],
    "weak axis, interior": ["0x1.e666666666662p-1", "-0x1.59e035579d048p+21"],
}


def test_ls_estimates_keep_their_golden_bits():
    for name, emb, a, _ in _golden_problems():
        if name not in GOLDEN_LS:
            continue
        w = lls_oos(emb, a).w
        assert [float(v).hex() for v in w] == GOLDEN_LS[name], name
        # the closed form itself, bit for bit
        avec = a.a.astype(float) if hasattr(a, "a") else a
        closed = (emb.eig.vectors.T @ avec) / np.sqrt(emb.eig.values)
        assert w.tobytes() == closed.tobytes(), name


def test_embedding_root_is_taken_once():
    _, emb = _gram_embedding(100, seed=0)
    assert emb.root.tobytes() == np.sqrt(emb.eig.values).tobytes()
    assert emb.root is emb.root
    assert emb.positions.tobytes() == (
        emb.eig.vectors * np.sqrt(emb.eig.values)).tobytes()


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(oos, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(oos, name, counted)
    return calls


@pytest.mark.parametrize("path", ["interior Newton", "rounding floor"])
def test_ml_evaluates_each_likelihood_term_only_when_it_is_read(monkeypatch, path):
    _, emb, a, eps = next(p for p in _golden_problems() if p[0] == path)
    calls = _count_calls(
        monkeypatch, ["_value", "_gradient", "_hessian", "_fraction_to_boundary"]
    )
    est = ml_oos(emb, a, eps=eps)
    calls = dict(calls)
    tol = oos.TOL_PER_VERTEX * emb.n
    grad_w = likelihood(emb, a, est.w)[1]
    tol_stop = est.grad_norm <= tol and np.linalg.norm(grad_w) <= tol
    assert tol_stop == (path == "interior Newton")
    # every iteration but the last takes a step; the last stops on the
    # tolerance before any Hessian, or on the rounding floor after one
    steps = est.iterations - 1
    assert calls["_gradient"] == steps + 1  # the start and each accepted point
    assert calls["_hessian"] == steps + (not tol_stop)
    assert calls["_value"] == steps + 1  # each full step passed Armijo at once
    assert calls["_fraction_to_boundary"] == 0  # far from the box: alpha = 1


_BOXES = st.sampled_from([0.02, 0.05, 0.2, 0.45])


def _near(x, ulps):
    """x moved by `ulps` units in the last place."""
    return float(x + ulps * np.spacing(x))


def _box_values(lo):
    """Values of p inside, near and just past the box [lo, 1 - lo] and the
    ACTIVE_TOL band inside it, to the last place."""
    hi = 1.0 - lo
    edges = [lo, lo + oos.ACTIVE_TOL, hi - oos.ACTIVE_TOL, hi, 0.5]
    return st.one_of(
        st.floats(lo - 1e-6, hi + 1e-6),
        st.builds(_near, st.sampled_from(edges), st.integers(-3, 3)),
    )


@settings(max_examples=300, deadline=None)
@given(st.data(), _BOXES)
def test_active_rows_reads_the_interior_off_min_and_max(data, lo):
    hi = 1.0 - lo
    p = np.array(data.draw(st.lists(_box_values(lo), min_size=1, max_size=12)))
    act_lo = (p - lo) <= oos.ACTIVE_TOL
    act_hi = (hi - p) <= oos.ACTIVE_TOL
    masks = oos._active_rows(p, p.min(), p.max(), lo, hi)
    if masks is None:
        assert not (act_lo.any() or act_hi.any())
    else:
        assert act_lo.any() or act_hi.any()
        assert np.array_equal(masks[0], act_lo)
        assert np.array_equal(masks[1], act_hi)


@settings(max_examples=300, deadline=None)
@given(st.data(), _BOXES)
def test_step_cap_shortcut_gives_exactly_the_full_scan(data, lo):
    hi = 1.0 - lo
    p = np.array(data.draw(st.lists(_box_values(lo), min_size=1, max_size=12)))
    n = p.size
    # directions whose largest |s_i| is a multiple of the box margin: near
    # the shortcut's threshold 1 / 1.25, near the scan's 0.95 and 1, or
    # anywhere up to 2; plus zero, large and NaN entries
    margin = min(p.min() - lo, hi - p.max())
    factor = data.draw(st.one_of(
        st.builds(_near, st.sampled_from([0.8, 0.95, 1.0]), st.integers(-3, 3)),
        st.floats(0.0, 2.0),
    ))
    scale = data.draw(st.sampled_from([factor * abs(margin), 10.0 * factor]))
    unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    # the largest entry anywhere, or on the row nearest the box, toward it
    at_lo = p.min() - lo <= hi - p.max()
    unit[data.draw(st.sampled_from(
        [int(np.argmin(p) if at_lo else np.argmax(p))] + list(range(n))
    ))] = data.draw(st.sampled_from([-1.0 if at_lo else 1.0, -1.0, 1.0]))
    s = scale * np.array(unit)
    if data.draw(st.booleans()):
        s[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from([np.nan, 0.0, -1.0, 1.0]))
    skip = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    skip = data.draw(st.sampled_from([False, skip]))

    with mock.patch.object(
        oos, "_fraction_to_boundary", wraps=oos._fraction_to_boundary
    ) as scan:
        got = oos._step_cap(s, p, p.min(), p.max(), lo, hi, skip)
        full = oos._fraction_to_boundary(s, p, lo, hi, skip)
    event("shortcut" if scan.call_count == 1 else "full scan")
    assert got == full
    if scan.call_count == 1:  # the shortcut, then the check's own scan
        assert got == 1.0
    if np.isnan(s).any():
        assert scan.call_count == 2


def test_step_cap_shortcut_holds_up_to_its_threshold():
    # the largest |s| the shortcut takes, against a full scan of 1.0
    lo, hi = 0.05, 0.95
    p = np.array([0.3, 0.6, 0.7])
    margin = hi - 0.7
    s = np.array([0.0, -1.0, 1.0]) * np.nextafter(margin / 1.25, 0.0)
    assert 1.25 * np.abs(s).max() < margin
    with mock.patch.object(
        oos, "_fraction_to_boundary", wraps=oos._fraction_to_boundary
    ) as scan:
        assert oos._step_cap(s, p, p.min(), p.max(), lo, hi, False) == 1.0
    assert not scan.called
    assert oos._fraction_to_boundary(s, p, lo, hi, False) == 1.0
