"""Circle diffeomorphisms, flows, and the exponential-map pathologies."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from shapegeo import diffeo_flows as df
from shapegeo import periodic_core as pc
from shapegeo.errors import NonConvergence, StepCollapse, VanishingField


def wrap(x):
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


def make_diffeo(n, disp_func):
    grid = pc.PeriodicGrid(n)
    return df.CircleDiffeo(
        pc.PeriodicFunction(grid, disp_func(grid.nodes)[None, :])
    )


class TestCircleDiffeo:
    def test_orientation_enforced(self):
        with pytest.raises(StepCollapse):
            make_diffeo(128, lambda t: 1.5 * np.sin(t))

    def test_mean_displacement_wrapped(self):
        phi = make_diffeo(128, lambda t: np.full_like(t, 2.5 * np.pi))
        mean = np.mean(phi.disp.values)
        assert -np.pi <= mean < np.pi

    def test_evaluation_matches_lift(self):
        phi = make_diffeo(64, lambda t: 0.2 * np.sin(t))
        theta = np.random.default_rng(0).uniform(0, 2 * np.pi, 16)
        expect = theta + 0.2 * np.sin(theta)
        assert np.max(np.abs(phi(theta) - expect)) < 1e-12

    def test_group_axioms(self):
        n = 256
        phi = make_diffeo(n, lambda t: 0.2 * np.sin(t))
        psi = make_diffeo(n, lambda t: 0.1 * np.cos(2 * t) + 0.5)
        ident = df.CircleDiffeo.identity(n)
        nodes = phi.grid.nodes
        # identity element
        assert np.max(np.abs(df.compose(phi, ident).values - phi.values)) < 1e-10
        assert np.max(np.abs(df.compose(ident, phi).values - phi.values)) < 1e-10
        # inverse
        left = df.compose(df.invert(phi), phi)
        right = df.compose(phi, df.invert(phi))
        assert np.max(np.abs(wrap(left.values - nodes))) < 1e-9
        assert np.max(np.abs(wrap(right.values - nodes))) < 1e-9
        # associativity
        a = df.compose(df.compose(phi, psi), phi)
        b = df.compose(phi, df.compose(psi, phi))
        assert np.max(np.abs(wrap(a.values - b.values))) < 1e-9


class TestAutonomousFlow:
    def test_flow_matches_dense_ode_oracle(self):
        n = 256
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), n)
        phi = df.flow_autonomous(u, 1.0)
        nodes = pc.PeriodicGrid(n).nodes
        sol = solve_ivp(
            lambda t, x: 1.0 + 0.5 * np.sin(x), (0, 1), nodes, rtol=1e-12, atol=1e-13
        )
        assert np.max(np.abs(wrap(phi.values - sol.y[:, -1]))) < 1e-10

    def test_flow_property(self):
        n = 128
        u = df.CircleField.from_callable(lambda t: 0.7 + 0.3 * np.cos(t), n)
        whole = df.flow_autonomous(u, 1.0)
        half = df.flow_autonomous(u, 0.5)
        composed = df.compose(half, half)
        assert np.max(np.abs(wrap(composed.values - whole.values))) < 1e-10

    def test_zero_time_is_identity(self):
        n = 64
        u = df.CircleField.from_callable(np.sin, n)
        phi = df.flow_autonomous(u, 0.0)
        assert np.max(np.abs(phi.disp.values)) < 1e-12


def mode_field(c, amps, phases, n=256):
    """u = c * (1 + sum_j amps[j] * sin((j + 1) x + phases[j])) on n points."""
    return df.CircleField.from_callable(
        lambda x: c * (1.0 + sum(a * np.sin((j + 1) * x + p)
                                 for j, (a, p) in enumerate(zip(amps, phases)))), n)


@st.composite
def resolved_fields(draw):
    """Nowhere-vanishing fields with 1-3 modes whose flows for |t| <= 2 are
    resolved on 256 points.  Resolution, not the integrator, bounds the
    amplitudes: with c = 1.5 and three modes of amplitude 0.3, compose
    misses by 1e-4 at n = 128, 3e-8 at n = 256 and 2e-13 at n = 512."""
    n_modes = draw(st.integers(1, 3))
    c = draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    amps = draw(st.lists(st.floats(-0.2, 0.2), min_size=n_modes, max_size=n_modes))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n_modes, max_size=n_modes))
    return mode_field(c, amps, phases)


class TestFlowProperties:
    @settings(max_examples=15, deadline=None)
    @given(resolved_fields(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_one_parameter_group(self, u, s, t):
        whole = df.flow_autonomous(u, s + t)
        composed = df.compose(df.flow_autonomous(u, s), df.flow_autonomous(u, t))
        assert np.max(np.abs(wrap(composed.values - whole.values))) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(resolved_fields(), st.floats(-1.0, 1.0))
    # the displacement's interpolant dips 4e-6 below its samples, outside
    # the sampled-range bracket invert starts from
    @example(mode_field(-1.34, [0.02, 0.02, 0.015], [0.3, 1.0, 2.0]), 0.3)
    def test_inverse_composes_to_identity(self, u, s):
        phi = df.flow_autonomous(u, s)
        left = df.compose(df.invert(phi), phi)
        assert np.max(np.abs(wrap(left.values - phi.grid.nodes))) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(resolved_fields(), st.floats(-1.0, 1.0))
    def test_flow_matches_dense_ode_oracle(self, u, t):
        phi = df.flow_autonomous(u, t)
        sol = solve_ivp(lambda _, x: u(x), (0.0, t), u.grid.nodes, rtol=1e-12, atol=1e-13)
        assert np.max(np.abs(wrap(phi.values - sol.y[:, -1]))) < 1e-10


class TestConjugation:
    def test_closed_form_rotation_speed(self):
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 256)
        eta, c = df.conjugate_to_rotation(u)
        assert abs(c - np.sqrt(0.75)) < 1e-9

    def test_conjugation_identity(self):
        n = 256
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), n)
        eta, c = df.conjugate_to_rotation(u)
        for t in (0.5, 1.0):
            phi = df.flow_autonomous(u, t)
            rot = df.CircleDiffeo.rotation(c * t, n)
            conj = df.compose(df.invert(eta), df.compose(rot, eta))
            assert np.max(np.abs(wrap(conj.values - phi.values))) < 1e-6

    def test_vanishing_field_rejected(self):
        u = df.CircleField.from_callable(np.sin, 128)
        with pytest.raises(VanishingField):
            df.conjugate_to_rotation(u)


class TestExpNonInjectivity:
    def test_two_distinct_fields_same_flow(self):
        n = 256
        order = 3

        def psi(amp):
            return make_diffeo(n, lambda t: amp * np.sin(order * t))

        u1, err1 = df.exp_noninjectivity_demo(psi(0.05), order)
        u2, err2 = df.exp_noninjectivity_demo(psi(0.08), order)
        assert err1 < 1e-6 and err2 < 1e-6
        assert np.max(np.abs(u1.u.values - u2.u.values)) > 0.01

    def test_non_periodic_psi_rejected(self):
        psi = make_diffeo(256, lambda t: 0.05 * np.sin(t))  # not 2pi/3-periodic
        with pytest.raises(ValueError):
            df.exp_noninjectivity_demo(psi, 3)

    def test_order_must_be_nonzero(self):
        with pytest.raises(ValueError, match="nonzero"):
            df.exp_noninjectivity_demo(make_diffeo(64, lambda t: 0.0 * t), 0)
        # a negative order rotates backwards
        psi = make_diffeo(64, lambda t: 0.05 * np.sin(-3 * t))
        assert df.exp_noninjectivity_demo(psi, -3)[1] < 1e-6


class TestNonSurjectivity:
    @pytest.mark.parametrize("n_rot, eps, n_samples", [(5, 0.15, 2048), (3, 0.1, 256), (5, 0.05, 256)])
    def test_candidate_is_fixed_point_free_with_isolated_periodic_points(self, n_rot, eps, n_samples):
        phi = df.nonsurjectivity_candidate(n_rot, eps, n_samples=n_samples)
        disp = phi.disp.values[0]
        assert np.min(disp) > 0 and np.max(disp) < 2 * np.pi  # fixed-point free
        pts = df.isolated_periodic_points(phi, n_rot)
        assert len(pts) == 2 * n_rot
        expect = np.arange(2 * n_rot) * np.pi / n_rot
        assert np.max(np.abs(np.sort(pts) - expect)) < 1e-6

    def test_eps_bound_enforced(self):
        with pytest.raises(ValueError):
            df.nonsurjectivity_candidate(5, 0.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_candidate_order_must_be_positive(self, n):
        with pytest.raises(ValueError, match=">= 1"):
            df.nonsurjectivity_candidate(n, 0.1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_periodic_point_order_must_be_positive(self, n):
        with pytest.raises(ValueError, match=">= 1"):
            df.isolated_periodic_points(df.nonsurjectivity_candidate(3, 0.1), n)

    def test_map_without_periodic_points(self):
        # the cube of the rotation by 1 rad is the rotation by 3 rad: no bracket to bisect
        pts = df.isolated_periodic_points(df.CircleDiffeo.rotation(1.0, 64), 3)
        assert pts.shape == (0,)


class TestTimeDependentFlow:
    def test_blow_up_time(self):
        grid = df.RealGrid(half_width=1e4)
        tf = df.TimeDependentField.uniform([np.square], grid)
        result = df.flow_time_dependent(tf, x0=np.array([2.0]))
        assert result.blow_up
        assert abs(result.blow_up_time - 0.5) < 1e-3

    def test_no_blow_up_for_bounded_field(self):
        grid = df.RealGrid()
        tf = df.TimeDependentField.uniform([lambda x: np.sin(x) * np.exp(-0.5 * x**2)], grid)
        result = df.flow_time_dependent(tf, x0=np.array([0.0, 1.0, -1.5]))
        assert not result.blow_up

    def test_reversal_returns_to_identity(self):
        grid = df.RealGrid()
        fields = [
            lambda x: np.sin(x) * np.exp(-0.5 * x**2),
            lambda x: np.cos(2 * x) * np.exp(-0.5 * x**2),
        ]
        tf = df.TimeDependentField.uniform(fields, grid)
        probe = np.linspace(-3, 3, 41)
        fwd = df.flow_time_dependent(tf, x0=probe)
        back = df.flow_time_dependent(tf.reversed(), x0=fwd.final_map)
        assert np.max(np.abs(back.final_map - probe)) < 1e-6

    @pytest.mark.parametrize("x0", [[9.9975, -9.25], [-9.25, 9.9975]], ids=["first", "second"])
    def test_first_point_to_leave_sets_the_exit_time(self, x0):
        """Near x = 10 the field is 0.1, near x = -10 it is -10: the point at 9.9975 leaves
        at 0.025, the one at -9.25 at 0.075, and both are outside at the end of one step."""
        grid = df.RealGrid(10, 2048)
        tf = df.TimeDependentField.uniform(
            [lambda x: 0.05 * (1 + np.tanh(x)) - 5 * (1 - np.tanh(x))], grid)
        alone = df.flow_time_dependent(tf, x0=np.array([9.9975]))
        both = df.flow_time_dependent(tf, x0=np.array(x0))
        assert alone.blow_up and both.blow_up
        assert abs(alone.blow_up_time - 0.025) < 1e-6
        assert abs(both.blow_up_time - alone.blow_up_time) < 1e-8

    @pytest.mark.parametrize("start", [-10.5, 12.0, np.nan])
    def test_start_outside_window_rejected(self, start):
        """A start past half_width would be read as a window exit at its first step."""
        grid = df.RealGrid()
        tf = df.TimeDependentField.uniform([np.square], grid)
        with pytest.raises(ValueError, match=rf"x0 = {start} .* half_width = 10\.0"):
            df.flow_time_dependent(tf, x0=np.array([0.5, start]))

    def test_knots_validated(self):
        grid = df.RealGrid()
        with pytest.raises(ValueError):
            df.TimeDependentField([0.0, 0.0, 1.0], [np.sin, np.sin], grid)
        with pytest.raises(ValueError):
            df.TimeDependentField([0.0, 1.0], [np.sin, np.sin], grid)
        with pytest.raises(ValueError, match="finite"):
            df.TimeDependentField([0.0, np.nan], [np.sin], grid)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            df.TimeDependentField.uniform([np.sin], grid, t_end=np.inf)

    @pytest.mark.parametrize("grid", [df.RealGrid(), pc.PeriodicGrid(64)], ids=["line", "circle"])
    def test_sampled_field_rejected(self, grid):
        """An array of node values is no field: a field is a callable x -> u(x)."""
        with pytest.raises(ValueError, match=r"field on \[0\.5, 1\.0\) is not callable"):
            df.TimeDependentField.uniform([np.sin, np.sin(grid.nodes)], grid)

    def test_field_not_finite_at_a_node_rejected(self):
        def field(x):
            u = np.sin(x)
            u[7] = np.nan
            return u

        with pytest.raises(ValueError, match=r"field on \[0\.0, 1\.0\) is not finite"):
            df.TimeDependentField.uniform([field], df.RealGrid())


def noninjectivity_field(amp):
    """exp_noninjectivity_demo's field for psi = x + amp*sin(3x), as exp-circle builds it.

    After compress it keeps 31 Fourier modes at amp = 0.05 and 45 at amp = 0.08.
    """
    return df.exp_noninjectivity_demo(make_diffeo(256, lambda t: amp * np.sin(3 * t)), 3)[0]


class TestCompressThreshold:
    @pytest.mark.parametrize("amp", [0.05, 0.08])
    def test_noninjectivity_field_keeps_only_multiples_of_3(self, amp):
        """The field is 2pi/3-periodic, so any other surviving mode is rounding noise."""
        u = noninjectivity_field(amp)
        modes = u.grid.wavenumbers[np.flatnonzero(pc.compress(pc.transform(u.u)).coeffs[0])]
        assert modes.size > 0 and np.all(modes % 3 == 0)


class TestFlowTelemetry:
    @pytest.mark.parametrize(
        "make_field, steps",
        [
            (lambda: df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 256), 19),
            (lambda: noninjectivity_field(0.05), 44),
            (lambda: noninjectivity_field(0.08), 54),
        ],
        ids=["sine", "noninjectivity-0.05", "noninjectivity-0.08"],
    )
    def test_smooth_flow_takes_base_steps(self, make_field, steps):
        """The exp-circle flows: steps sized from the error estimate keep its largest
        value within a factor 100 of the TOL bound, so the bound sets the cost."""
        u = make_field()
        result = df.flow_time_dependent(df.TimeDependentField.uniform([u], u.grid))
        assert result.steps == steps and result.rejected == 0
        bound = df.TOL * (np.max(np.abs(result.final_map)) + 1.0)
        assert bound / 100.0 <= result.max_err <= bound

    def test_blow_up_run_shrinks_its_steps(self):
        grid = df.RealGrid(half_width=1e4)
        tf = df.TimeDependentField.uniform([np.square], grid)
        result = df.flow_time_dependent(tf, x0=np.array([2.0]))
        assert result.blow_up and result.steps > result.blow_up_time / df.BASE_STEP

    def test_steps_reuse_their_last_stage(self, monkeypatch):
        """Six field evaluations per trial step, accepted or rejected, plus the first
        stage of each knot interval."""
        calls = []
        evaluate = df.evaluate_spectral
        monkeypatch.setattr(df, "evaluate_spectral", lambda *a: calls.append(1) or evaluate(*a))
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 256)
        result = df.flow_time_dependent(df.TimeDependentField.uniform([u], u.grid))
        assert len(calls) == 6 * (result.steps + result.rejected) + 1
        calls.clear()
        back = df.CircleField(pc.PeriodicFunction(u.grid, -0.5 * u.u.values))
        result = df.flow_time_dependent(df.TimeDependentField.uniform([u, back], u.grid))
        assert len(calls) == 6 * (result.steps + result.rejected) + 2


def circle_flow():
    u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 64)
    back = df.CircleField(pc.PeriodicFunction(u.grid, -0.5 * u.u.values))
    return df.flow_time_dependent(df.TimeDependentField.uniform([u, back], u.grid))


def blow_up_flow():
    grid = df.RealGrid(half_width=1e4)
    return df.flow_time_dependent(df.TimeDependentField.uniform([np.square], grid),
                                  x0=np.array([2.0]))


class TestFlowLogging:
    @pytest.mark.parametrize("flow", [circle_flow, blow_up_flow], ids=["circle", "blow-up"])
    def test_one_debug_record_per_flow(self, caplog, flow):
        """The record carries the steps, rejected and max_err of the returned FlowResult."""
        with caplog.at_level(logging.DEBUG, logger="shapegeo"):
            result = flow()
        records = [r for r in caplog.records if r.name == "shapegeo"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert records[0].args == (result.steps, result.rejected, result.max_err)

    def test_library_logger_has_a_null_handler(self):
        """So an application that configures no logging prints nothing."""
        handlers = logging.getLogger("shapegeo").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)


@pytest.fixture
def plans(monkeypatch):
    """The coefficient objects evaluate_spectral builds a plan for, in order."""
    built = []
    plan = pc._spectral_plan
    monkeypatch.setattr(pc, "_spectral_plan", lambda c: built.append(c) or plan(c))
    return built


class TestSpectralPlans:
    """Each coefficient object is folded once, however often it is evaluated."""

    def test_one_plan_per_field(self, plans):
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 64)
        back = df.CircleField(pc.PeriodicFunction(u.grid, -0.5 * u.u.values))
        result = df.flow_time_dependent(df.TimeDependentField.uniform([u, back, u], u.grid))
        assert result.steps > 3
        assert len(plans) == 2 and plans[0] is u._coeffs and plans[1] is back._coeffs

    def test_invert_plans_once(self, plans):
        phi = make_diffeo(64, lambda t: 0.2 * np.sin(t))
        df.invert(phi)
        assert len(plans) == 1 and plans[0] is phi._coeffs

    def test_periodic_points_plan_once_per_map(self, plans):
        phi = df.nonsurjectivity_candidate(3, 0.1)
        assert df.isolated_periodic_points(phi, 3).size > 0
        # phi's coefficients serve both compositions; phi^3's serve the scan and the bisection
        assert len(plans) == 2 and plans[0] is phi._coeffs and plans[1] is not phi._coeffs

    def test_maps_and_fields_keep_their_coefficients(self, plans):
        phi = make_diffeo(64, lambda t: 0.2 * np.sin(t))
        u = df.CircleField.from_callable(np.cos, 64)
        x = np.linspace(0.0, 1.0, 5)
        first = phi(x), u(x)
        second = phi(x[:3]), u(x[:3])
        assert len(plans) == 2 and plans == [phi._coeffs, u._coeffs]
        for a, b in zip(first, second):
            assert np.array_equal(a[:3], b)


def oscillator(y):
    """The rate (v, -x) of the harmonic oscillator y = (x, v)."""
    return np.array([y[1], -y[0]])


class TestIntegrate:
    """The flows' error-controlled loop on a state that is not a flow."""

    def test_oscillator_end_state(self):
        result = df.FlowResult(None)
        y, t, _ = df._integrate(oscillator, np.array([1.0, 0.0]), 0.0, 3.0, df.BASE_STEP,
                                result)
        assert t == pytest.approx(3.0, abs=1e-13)
        assert np.max(np.abs(y - [np.cos(3.0), -np.sin(3.0)])) < 1e-9
        assert result.steps > 0 and 0.0 < result.max_err <= 2.0 * df.TOL

    def test_oscillator_event_time(self):
        result = df.FlowResult(None)
        y, t, _ = df._integrate(oscillator, np.array([1.0, 0.0]), 0.0, 3.0, df.BASE_STEP,
                                result, leaves=lambda y: y[0] < 0.0)
        assert y is None
        assert abs(t - 0.5 * np.pi) < 1e-8
        assert result.steps > 0 and 0.0 < result.max_err <= 2.0 * df.TOL

    def test_tallies_land_in_the_result_passed_in(self):
        """A first trial step of 1 is rejected once; the call adds its steps and rejected
        steps to those the result already holds, and raises max_err to its own."""
        fresh = df.FlowResult(None)
        df._integrate(oscillator, np.array([1.0, 0.0]), 0.0, 3.0, 1.0, fresh)
        held = df.FlowResult(None, steps=7, rejected=2, max_err=1e-20)
        df._integrate(oscillator, np.array([1.0, 0.0]), 0.0, 3.0, 1.0, held)
        assert fresh.steps > 0 and fresh.rejected == 1 and fresh.max_err > 1e-20
        assert (held.steps, held.rejected, held.max_err) == (
            fresh.steps + 7, fresh.rejected + 2, fresh.max_err)


class TestIntegratorBudgets:
    """An exhausted step budget, or a bisection that cannot reach its tolerance, raises
    NonConvergence instead of returning a result."""

    def test_autonomous_substep_budget(self, monkeypatch):
        monkeypatch.setattr(df, "MAX_SUBSTEPS", 3)
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 64)
        with pytest.raises(NonConvergence, match="MAX_SUBSTEPS"):
            df.flow_autonomous(u, 1.0)

    def test_time_dependent_step_floor(self, monkeypatch):
        monkeypatch.setattr(df, "MIN_STEP", 1e-3)
        monkeypatch.setattr(df, "TOL", 0.0)
        grid = df.RealGrid(half_width=1e4)
        tf = df.TimeDependentField.uniform([np.square], grid)
        with pytest.raises(NonConvergence, match="MIN_STEP"):
            df.flow_time_dependent(tf, x0=np.array([2.0]))

    def test_time_dependent_substep_budget(self, monkeypatch):
        monkeypatch.setattr(df, "MAX_SUBSTEPS", 3)
        grid = df.RealGrid()
        tf = df.TimeDependentField.uniform([lambda x: np.sin(x) * np.exp(-0.5 * x**2)], grid)
        with pytest.raises(NonConvergence, match="MAX_SUBSTEPS"):
            df.flow_time_dependent(tf, x0=np.array([0.0, 1.0]))

    def test_invert_bisection_budget(self, monkeypatch):
        monkeypatch.setattr(df, "INVERT_TOL", 0.0)
        u = df.CircleField.from_callable(lambda t: 1.0 + 0.5 * np.sin(t), 64)
        phi = df.flow_autonomous(u, 0.5)
        with pytest.raises(NonConvergence, match=STALLED):
            df.invert(phi)

    def test_exit_time_bisection_budget(self, monkeypatch):
        monkeypatch.setattr(df, "EXIT_TOL", 0.0)
        grid = df.RealGrid(half_width=1e4)
        tf = df.TimeDependentField.uniform([np.square], grid)
        with pytest.raises(NonConvergence, match=STALLED):
            df.flow_time_dependent(tf, x0=np.array([2.0]))

    def test_periodic_point_bisection_budget(self, monkeypatch):
        monkeypatch.setattr(df, "PERIODIC_POINT_TOL", 0.0)
        phi = df.nonsurjectivity_candidate(3, 0.1)
        with pytest.raises(NonConvergence, match=STALLED):
            df.isolated_periodic_points(phi, 3)


# a tol of 0 is below every bracket width that floating point can resolve
STALLED = r"bracket width \S+ >= 0\.0e\+00 and a halving narrowed no bracket"


@st.composite
def brackets(draw):
    """Finite brackets [c - a, c + b] around thresholds c, and a tol they can reach."""
    triples = draw(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3),
                                      st.floats(0.0, 1e3)), min_size=1, max_size=8))
    c, a, b = (np.array(column) for column in zip(*triples))
    return c, c - a, c + b, draw(st.floats(1e-9, 10.0))


class TestBisect:
    @settings(max_examples=200, deadline=None)
    @given(brackets())
    def test_brackets_hold_the_threshold_and_match_fixed_halvings(self, case):
        c, lo, hi, tol = case
        got_lo, got_hi = df._bisect(lambda m: m >= c, lo, hi, tol)
        assert np.all((got_lo <= c) & (c <= got_hi)) and np.max(got_hi - got_lo) < tol
        # the halvings of a fixed budget, which log2(2e3 / 1e-9) < 41 never exhausts
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = np.where(mid >= c, lo, mid), np.where(mid >= c, mid, hi)
            if np.max(hi - lo) < tol:
                break
        else:
            pytest.fail("100 halvings left a bracket tol wide or wider")
        assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)

    @settings(max_examples=50, deadline=None)
    @given(brackets())
    def test_unreachable_tol_raises(self, case):
        c, lo, hi, _ = case
        with pytest.raises(NonConvergence, match=STALLED):
            df._bisect(lambda m: m >= c, lo, hi, 0.0)

    # a bracket that is not finite raises on its first halving; beside a finite one,
    # on the halving after [0, 1] has narrowed to two neighbouring floats at 0.5 (54)
    @pytest.mark.parametrize("lo, hi, halvings", [
        ([np.nan], [1.0], 1), ([0.0], [np.inf], 1), ([-np.inf], [np.inf], 1),
        ([0.0, np.nan], [1.0, 1.0], 55)])
    def test_bracket_that_is_not_finite_raises(self, lo, hi, halvings):
        calls = []

        def upper(m):
            calls.append(m)
            return m >= 0.5

        with np.errstate(invalid="ignore"), pytest.raises(NonConvergence, match="narrowed no"):
            df._bisect(upper, np.array(lo), np.array(hi), 1e-3)
        assert len(calls) == halvings


class TestMembership:
    def test_decaying_displacement_accepted(self):
        grid = df.RealGrid()
        assert df.membership_check(0.5 * np.exp(-grid.nodes**2), grid)

    def test_slow_decay_rejected(self):
        grid = df.RealGrid()
        with pytest.raises(ValueError):
            df.membership_check(1.0 / (1.0 + np.abs(grid.nodes)), grid)

    def test_orientation_reversal_detected(self):
        grid = df.RealGrid()
        steep = -2.0 * grid.nodes * np.exp(-grid.nodes**2)
        assert not df.membership_check(steep, grid)

    def test_flow_of_decaying_field_is_member(self):
        grid = df.RealGrid()
        tf = df.TimeDependentField.uniform([lambda x: 0.5 * np.sin(x) * np.exp(-0.5 * x**2)],
                                           grid)
        result = df.flow_time_dependent(tf)
        disp = result.final_map - grid.nodes
        assert df.membership_check(disp, grid)
