"""The 2-jet type: its primitives, and the catalog metrics' jets against the
hand-derived partials they replaced and against the Richardson FD backend."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cansol
import reference_kernel as ref
from cansol import jets
from cansol.backgrounds import POLE_BAND, model_background, unit_sphere_metric
from cansol.canonical import VARIANTS, build_canonical_metric
from cansol.geometry import MetricField, _partials, check_metric_derivatives

DIRECTION = {"expanding": "forward", "shrinking": "backward", "steady": "backward"}
TOL = 1e-13


def deviation(new, old):
    """max |new - old| / max(1, max |old|) per point of the leading axis; the worst point."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    axes = tuple(range(1, old.ndim))
    worst = np.max(np.abs(new - old), axis=axes) / np.maximum(1.0, np.max(np.abs(old), axis=axes))
    return float(np.max(worst))


def polar_points(d, count, seed):
    """Random points of the polar chart, then points next to the pole band in each polar angle."""
    rng = np.random.default_rng(seed)
    low, high = np.full(d, POLE_BAND + 0.1), np.full(d, math.pi - POLE_BAND - 0.1)
    low[-1], high[-1] = 0.0, 2.0 * math.pi
    pts = [rng.uniform(low, high) for _ in range(count)]
    for k in range(d - 1):
        for edge in (POLE_BAND + 1e-6, math.pi - POLE_BAND - 1e-6):
            p = rng.uniform(low, high)
            p[k] = edge
            pts.append(p)
    return np.array(pts)


class TestAgainstTheHandDerivedPartials:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sphere_metric(self, d):
        metric = unit_sphere_metric(d)
        d1, d2 = ref.sphere_metric_partials(d)
        pts = polar_points(d, 6, seed=d)
        g, dg, ddg = metric.jet(pts, 2)
        assert np.array_equal(g, metric.components(pts))
        assert deviation(dg, d1(pts)) <= TOL and deviation(ddg, d2(pts)) <= TOL
        assert np.array_equal(metric.jet(pts, 1)[1], dg)
        for p in pts[[0, -1]]:        # a single point, of shape (d,)
            _, dg1, ddg1 = metric.jet(p, 2)
            assert deviation(dg1[None], d1(p)[None]) <= TOL and deviation(ddg1[None], d2(p)[None]) <= TOL

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("background", ["round_sphere", "euclidean_static"])
    def test_canonical_metric(self, background, variant, dim):
        bg = model_background(background, dim=dim, direction=DIRECTION[variant])
        cm = build_canonical_metric(bg, variant, 1e3)
        rng = np.random.default_rng(dim)
        ys = polar_points(dim, 4, seed=dim) if background == "round_sphere" else rng.uniform(-1.5, 1.5, (5, dim))
        zs = np.column_stack((rng.uniform(cm.t_min, bg.time_domain[1], len(ys)), ys))
        d1, d2 = ref.canonical_partials(cm)
        g, dg, ddg = cm.field.jet(zs, 2)
        assert np.array_equal(g, cm.field.components(zs))
        assert np.array_equal(g[0], cm.field.components(zs[0]))      # a bare (d,) point
        assert deviation(dg, d1(zs)) <= TOL and deviation(ddg, d2(zs)) <= TOL
        assert np.array_equal(cm.field.jet(zs, 1)[1], dg)
        # one point alone gives its row of the stack
        assert all(np.array_equal(a[0], b[-1]) for a, b in zip(cm.field.jet(zs[-1:], 2), (g, dg, ddg)))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_conformal_scalars(self, dim, direction):
        bg = model_background("round_sphere", dim=dim, direction=direction)
        _, dphi, _, R, dR, d2R = ref.conformal_scalars(bg)
        ts = np.linspace(0.01, bg.time_domain[1], 7)
        v, d1, d2 = jets.derivatives(bg.conformal.R, ts)
        assert np.array_equal(v, R(ts))
        assert deviation(d1[:, None], dR(ts)[:, None]) <= TOL
        assert deviation(d2[:, None], d2R(ts)[:, None]) <= TOL
        c = bg.curvature(np.ones((len(ts), dim)), ts)
        assert np.array_equal(c.R, R(ts))
        assert deviation(c.dRdt[:, None], dR(ts)[:, None]) <= TOL
        for t in ts[:2]:
            assert np.array_equal(bg.dt_metric_at(np.ones(dim), t),
                                  dphi(t) * bg.conformal.sigma.components(np.ones(dim)))


def equal_values(a, b):
    """Two tuples of arrays, equal entry by entry in shape and value (a signed zero equals its twin)."""
    return len(a) == len(b) and all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


class TestSphereFactorTable:
    """The sphere metric's table rows against the entry-by-entry factor products."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_equals_the_factor_product_metric(self, d, order):
        table, written = unit_sphere_metric(d), ref.factor_product_sphere_metric(d)
        rng = np.random.default_rng(10 * d + order)
        pts = rng.uniform(-7.0, 7.0, (200, d))
        assert equal_values(table.jet(pts, order), written.jet(pts, order))
        assert equal_values((table.components(pts),), (written.components(pts),))
        for p in pts[:3]:           # bare (d,) points
            assert equal_values(table.jet(p, order), written.jet(p, order))
            assert equal_values((table.components(p),), (written.components(p),))

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_a_row_does_not_depend_on_its_stack(self, d):
        metric = unit_sphere_metric(d)
        pts = polar_points(d, 9, seed=d)
        for order in (1, 2):
            stacked = metric.jet(pts, order)
            for i in range(len(pts)):
                one = metric.jet(pts[i : i + 1], order)
                assert [a[i].tobytes() for a in stacked] == [b[0].tobytes() for b in one], (order, i)


# ---------------------------------------------------------------------------
# the jet against the Richardson FD backend
# ---------------------------------------------------------------------------


def fd_partials(f, ts):
    """Richardson-extrapolated first and second derivatives of f at the times ts (P,)."""
    return [_partials(None, lambda x: f(x[..., 0]), ts[:, None], order, (), "test", richardson=True).reshape(ts.shape)
            for order in (1, 2)]


def assert_close_to_fd(J, f, ts, rtol=1e-6):
    for ana, num in zip((J.d1, J.d2), fd_partials(f, ts)):
        scale = max(1.0, float(np.max(np.abs(ana))))
        assert float(np.max(np.abs(ana - num))) <= rtol * scale


PRIMITIVES = {
    "add": lambda t: t + t * t + 0.5,
    "sub": lambda t: t - t * t - 0.5 - 2.0 * t,
    "rsub": lambda t: 1.5 - t * t * t,
    "neg": lambda t: -(t * t),
    "mul": lambda t: t * (t + 1.0) * (t - 2.0) * 1.5,
    "div": lambda t: (t + 2.0) / (t * t + 3.0) / 2.0,
    "rdiv": lambda t: 2.0 / (t * t + 3.0),
    "pow": lambda t: (t * t + 3.0) ** 3 + (t + 3.0) ** -2,
}


class TestAgainstFiniteDifferences:
    # every primitive runs on every run; hypothesis draws the seed and the count
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_every_primitive(self, name, seed, count):
        f = PRIMITIVES[name]
        ts = np.random.default_rng(seed).uniform(-1.0, 1.0, count)
        J = jets.lift(f(jets.Jet.variable(ts, 2)), jets.Jet.variable(ts, 2))
        assert np.array_equal(J.v, f(ts))
        assert_close_to_fd(J, f, ts)

    def test_products_of_two_jets(self):
        # every product of PRIMITIVES has a linear right factor, whose d2 is the scalar 0.0
        ts = np.random.default_rng(7).uniform(-1.0, 1.0, 3)
        first = lambda t: (t + 1.0) * (2.0 * t - 3.0)       # two 1-jets
        J = jets.lift(first(jets.Jet.variable(ts, 1)), jets.Jet.variable(ts, 1))
        assert J.d2 is None and np.array_equal(J.v, first(ts))
        scale = max(1.0, float(np.max(np.abs(J.d1))))
        assert float(np.max(np.abs(J.d1 - fd_partials(first, ts)[0]))) <= 1e-6 * scale
        t = jets.Jet.variable(ts, 2)
        assert type((t**2)._d2) is type((t**2 + t)._d2) is np.ndarray
        for f in (lambda t: t * t**2, lambda t: (t * t - 1.0) * (t**2 + t)):   # an array d2 on the right
            J = f(t)
            assert np.array_equal(J.v, f(ts))
            assert_close_to_fd(J, f, ts)

    @pytest.mark.parametrize("f", [lambda t, a: a + t, lambda t, a: a - t, lambda t, a: a * t,
                                   lambda t, a: a / t], ids=["radd", "rsub", "rmul", "rdiv"])
    def test_a_larger_left_operand_broadcasts_the_derivatives(self, f):
        # each derivative takes the shape of the value, as for a jet on the left
        big = jets.derivatives(lambda t: f(t, np.ones(3)), 0.5)
        small = jets.derivatives(lambda t: f(t, 1.0), 0.5)
        assert [a.shape for a in big] == [(3,)] * 3
        for b, s in zip(big, small):
            assert np.array_equal(b, np.broadcast_to(s, (3,)))

    @given(which=st.sampled_from(["sphere", "flat", "snapshot"] + [f"canonical-{v}" for v in VARIANTS]),
           dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_every_catalog_metric(self, which, dim, seed):
        rng = np.random.default_rng(seed)
        sphere = model_background("round_sphere", dim=dim, direction="backward")
        ys = polar_points(dim, 3, seed=seed % 1000)[:3]      # inside the sampling box
        if which == "sphere":
            metric, pts = unit_sphere_metric(dim), ys
        elif which == "flat":
            metric, pts = model_background("euclidean_static", dim=dim).conformal.sigma, ys
        elif which == "snapshot":
            # the partials of g(0.4) = phi(0.4) sigma that ``bundle`` gives, against
            # differences of phi(0.4) times sigma's components
            snap = ref.snapshot(sphere, 0.4)

            def bundle_jet(p, order):
                if not order:
                    return snap.jet(p, 0)
                b = sphere.bundle(p, [0.4] * len(p), order)
                return (b.g, b.dg, b.ddg)[: order + 1]

            metric = MetricField(dim, bundle_jet)
            pts = ys
        else:
            variant = which.split("-")[1]
            cm = build_canonical_metric(model_background("round_sphere", dim=dim, direction=DIRECTION[variant]),
                                        variant, 1e2)
            ts = rng.uniform(cm.t_min, cm.base.time_domain[1], len(ys))
            metric, pts = cm.field, np.column_stack((ts, ys))
        # the second differences lose about eps |g| / FD_H2^2 = 2e-6 to rounding on the
        # time-time entry N + R of the steady metric
        assert check_metric_derivatives(metric, pts, rtol=1e-5) < 1e-5


class TestMetricCheck:
    def test_one_stack_gives_the_worst_point(self):
        cm = build_canonical_metric(model_background("round_sphere", dim=3, direction="backward"),
                                    "shrinking", 1e3)
        pts = np.column_stack((np.linspace(0.1, 0.9, 6), polar_points(3, 2, seed=4)))
        stacked = check_metric_derivatives(cm.field, pts)
        assert stacked == max(check_metric_derivatives(cm.field, [p]) for p in pts) > 0.0
        assert check_metric_derivatives(cm.field, []) == 0.0
        assert check_metric_derivatives(cm.field.without_analytic_derivatives(), pts) == 0.0


def test_import_loads_neither_sympy_nor_hypothesis():
    # sympy takes about 0.4 s to import, against a set-up time of about 0.2 s
    src = Path(cansol.__file__).resolve().parents[1]
    code = "import sys, cansol, cansol.cli; print(sorted({'sympy', 'hypothesis'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
