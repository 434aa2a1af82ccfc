"""The pointwise einsum kernel that the batched kernel replaced, kept as a test oracle.

Each function evaluates a single point with the contractions of the
original single-point code.  Metric components and potential callbacks
are called on the bare (d,) point, which the catalog callbacks accept, the
metric's jet on the one-point stack; only analytic derivatives are
supported.
"""

import math
from itertools import combinations_with_replacement, permutations

import numpy as np

from cansol.backgrounds import POLE_BAND, slice_stack
from cansol.geometry import MetricField, hessian_batch
from cansol.harnack import _periodic_nodes, _trapezoid_nodes


def inverse_metric(metric, p):
    return np.linalg.inv(np.asarray(metric.components(p), dtype=float))


def metric_partials(metric, p, order):
    """dg, or (dg, ddg), at one point from the metric's jet."""
    out = [np.asarray(a, dtype=float)[0] for a in metric.jet(np.asarray(p, dtype=float)[None], order)]
    return out[1] if order == 1 else out[1:]


def christoffel(metric, p):
    ginv = inverse_metric(metric, p)
    dg = metric_partials(metric, p, 1)
    bracket = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, bracket)
    return 0.5 * (gamma + np.swapaxes(gamma, 1, 2))


def christoffel_d1(metric, p):
    ginv = inverse_metric(metric, p)
    dg, ddg = metric_partials(metric, p, 2)
    bracket = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
    dbracket = (
        np.einsum("ebdc->edbc", ddg) + np.einsum("ecbd->edbc", ddg) - np.einsum("edbc->edbc", ddg)
    )
    dginv = -np.einsum("am,emn,nd->ead", ginv, dg, ginv)
    dgamma = 0.5 * np.einsum("ead,dbc->eabc", dginv, bracket)
    dgamma += 0.5 * np.einsum("ad,edbc->eabc", ginv, dbracket)
    return 0.5 * (dgamma + np.swapaxes(dgamma, 2, 3))


def riemann(metric, p):
    gamma = christoffel(metric, p)
    dgamma = christoffel_d1(metric, p)
    return (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )


def ricci(metric, p):
    ric = np.einsum("abad->bd", riemann(metric, p))
    return 0.5 * (ric + ric.T)


def hessian(metric, f, p):
    gamma = christoffel(metric, p)
    df = np.asarray(f.d1(p), dtype=float)
    ddf = np.asarray(f.d2(p), dtype=float)
    hess = ddf - np.einsum("cab,c->ab", gamma, df)
    return 0.5 * (hess + hess.T)


def tensor_norm(metric, T, p):
    """Covariant norm |T|_g."""
    m = inverse_metric(metric, p)
    sq = float(np.einsum("ac,bd,ab,cd->", m, m, T, T))
    return float(np.sqrt(max(sq, 0.0)))


def soliton_defect(cm, p, t):
    """E_N = Ric + Hess(f) + c_var * metric at (p, t), and Ric itself."""
    z = cm.spacetime_point(p, t)
    ric = ricci(cm.field, z)
    E = ric + hessian(cm.field, cm.potential, z) + cm.soliton_constant * cm.field.components(z)
    return 0.5 * (E + E.T), ric


def laplacian_batch(b, f):
    """Metric Laplacians of f at a bundle's points, the traces of the Hessians against g^{ab}, (P,)."""
    return np.einsum("pab,pab->p", b.ginv, hessian_batch(b, f))


def snapshot(bg, t):
    """The metric phi(t) sigma of a catalog background at one time, its jet sigma's scaled by phi(t)."""
    sigma, phi = bg.conformal.sigma, bg.conformal.phi(t)
    return MetricField(dim=bg.dim, jet=lambda p, order: tuple(phi * a for a in sigma.jet(p, order)))


def time_time(cm, p, t):
    """The canonical metric's time-time entry w at one (p, t), read off its field's value."""
    return float(cm.field.components(cm.spacetime_point(p, t))[0, 0])


def canonical_christoffel_closed_form(cm, p, t, as_printed=False):
    """The closed-form Christoffel table at one (p, t), from the background's conformal data.

    Ric is sigma's, R and dR/dt are the hand-derived ``conformal_scalars``,
    and R is constant in space on the catalog.  Times are Python floats
    here, and a float ``t**2`` (libm pow) can round differently from
    numpy's square of an array, so stacked tables equal this one to a few
    ulps, not bitwise.
    """
    bg, m, N, s = cm.base, cm.base.dim, cm.N, cm.sign
    t = float(t)
    p = np.asarray(p, dtype=float)
    snap = snapshot(bg, t)
    g = snap.components(p)
    ginv = np.linalg.inv(g)
    ric = np.asarray(bg.conformal.ric_sigma(p))
    _, _, _, R, dR, _ = conformal_scalars(bg)
    R, dRdt, dRdy = R(t), dR(t), np.zeros(m)
    w = time_time(cm, p, t)
    gamma = np.zeros((m + 1,) * 3)
    gamma[1:, 1:, 1:] = christoffel(snap, p)
    gamma[1:, 0, 0] = -0.5 * ginv @ dRdy
    if s == 0:
        mixed_up = ginv @ ric
        gamma[0, 1:, 1:] = -ric / (N + R)
        time_mixed = 0.5 * dRdy if as_printed else 0.5 * dRdy / (N + R)
        gamma[0, 0, 0] = 0.5 * dRdt if as_printed else 0.5 * dRdt / (N + R)
    else:
        mixed_up = -s * (ginv @ ric) - np.eye(m) / (2 * t)
        if as_printed and s < 0:
            gamma[0, 1:, 1:] = -(g / (2 * t**2) - ric) / (t * w)
        else:
            gamma[0, 1:, 1:] = (s * ric / t + g / (2 * t**2)) / w
        time_mixed = dRdy / (2 * t * w)
        r_coeff, m_sign = (1, 1) if as_printed else (2, s)
        gamma[0, 0, 0] = -3 / (2 * t) + (r_coeff * R / t + dRdt + m_sign * m / (2 * t**2)) / (2 * t * w)
    gamma[1:, 1:, 0] = gamma[1:, 0, 1:] = mixed_up
    gamma[0, 1:, 0] = gamma[0, 0, 1:] = time_mixed
    return gamma


def polynomial_partials(dim, rng, degree=3):
    """``partials(p, order)`` of the random polynomial that ``random_polynomial_field`` draws.

    The term-by-term loop the index-table evaluation replaced: each ordered
    choice of ``order`` factors of a term is differentiated away, the rest
    multiplied left to right onto the coefficient.
    """
    terms = [((), float(rng.uniform(-1, 1)))]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            terms.append((combo, float(rng.uniform(-1, 1))))

    def partials(p, order):
        out = np.zeros(p.shape[:-1] + (dim,) * order)
        for combo, c in terms:
            for drop in permutations(range(len(combo)), order):
                prod = np.full(p.shape[:-1], c)
                for j, i in enumerate(combo):
                    if j not in drop:
                        prod = prod * p[..., i]
                out[(..., *(combo[j] for j in drop))] += prod
        return out

    return partials


# ---------------------------------------------------------------------------
# hand-derived partials that the jets replaced, kept as oracles
# ---------------------------------------------------------------------------


def sphere_metric_partials(d):
    """(d1, d2) of the round unit d-sphere metric from the index tables of cot and csc^2."""
    # (a, i) with a < i: d_a g_ii = 2 cot(theta_a) g_ii
    pa, pi_ = np.triu_indices(d, 1)
    # (a, b, i) with a != b both below i: d_a d_b g_ii = 4 cot_a cot_b g_ii
    triples = [(a, b, i) for i in range(d) for a in range(i) for b in range(i) if a != b]
    ta, tb, ti = np.array(triples, dtype=int).reshape(-1, 3).T

    def diag(p):
        s2 = np.sin(p[..., : d - 1]) ** 2
        return np.concatenate((np.ones(p.shape[:-1] + (1,)), np.cumprod(s2, axis=-1)), axis=-1)

    def d1(p):
        g = diag(p)
        cot = 1.0 / np.tan(p[..., : d - 1])
        out = np.zeros(p.shape[:-1] + (d, d, d))
        out[..., pa, pi_, pi_] = 2.0 * cot[..., pa] * g[..., pi_]
        return out

    def d2(p):
        g = diag(p)
        cot = 1.0 / np.tan(p[..., : d - 1])
        csc2 = 1.0 / np.sin(p[..., : d - 1]) ** 2
        out = np.zeros(p.shape[:-1] + (d, d, d, d))
        out[..., pa, pa, pi_, pi_] = (4.0 * cot[..., pa] ** 2 - 2.0 * csc2[..., pa]) * g[..., pi_]
        out[..., ta, tb, ti, ti] = 4.0 * cot[..., ta] * cot[..., tb] * g[..., ti]
        return out

    return d1, d2


def factor_product_sphere_metric(d):
    """The round unit d-sphere of ``unit_sphere_metric`` in plain numpy, one entry at a time.

    Each entry of g_ii = prod_{k<i} sin^2(theta_k) and of its partials is
    the product, in angle order, of one factor per angle below i: sin^2,
    its first derivative 2 sin cos or its second 2 (cos^2 - sin^2).
    """

    def jet(p, order):
        p = np.asarray(p, dtype=float)
        s, c = np.sin(p), np.cos(p)
        factors = (s**2, 2.0 * s * c, 2.0 * (c * c - s**2))
        lead = p.shape[:-1]

        def product(i, *angles):
            # the entry of g_ii differentiated once in each of ``angles``
            y = np.ones(lead)
            for k in range(i):
                y = y * factors[angles.count(k)][..., k]
            return y

        out = [np.zeros(lead + (d,) * (2 + o)) for o in range(order + 1)]
        for i in range(d):
            out[0][..., i, i] = product(i)
            for a in range(i if order else 0):
                out[1][..., a, i, i] = product(i, a)
                for b in range(i if order > 1 else 0):
                    out[2][..., a, b, i, i] = product(i, a, b)
        return tuple(out)

    return MetricField(dim=d, jet=jet)


def conformal_scalars(bg):
    """(phi, phi', phi'', R, R', R'') of a catalog background, as functions of t."""
    conf = bg.conformal
    rate = 0.0 if bg.name != "round_sphere" else 2.0 * (bg.dim - 1)
    dphi = -rate if bg.direction == "forward" else rate
    d2phi = 0.0             # phi is affine in t on the catalog
    S = conf.sigma_scalar

    def dR(t):
        return -S * dphi / conf.phi(t) ** 2

    def d2R(t):
        phi = conf.phi(t)
        return S * (2.0 * dphi**2 / phi**3 - d2phi / phi**2)

    return conf.phi, (lambda t: dphi), (lambda t: d2phi), conf.R, dR, d2R


def canonical_partials(cm):
    """(d1, d2) of the canonical metric from the closed-form time profiles w, psi."""
    bg, s, N = cm.base, cm.sign, cm.N
    m = bg.dim
    dim = m + 1
    phi, dphi, d2phi, R, dR, d2R = conformal_scalars(bg)
    sd1, sd2 = sphere_metric_partials(m) if bg.name == "round_sphere" else (
        lambda y: np.zeros(y.shape[:-1] + (m,) * 3), lambda y: np.zeros(y.shape[:-1] + (m,) * 4))
    sigma = bg.conformal.sigma.components
    if s == 0:
        dw, d2w, psi, dpsi, d2psi = dR, d2R, phi, dphi, d2phi
    else:
        dw = lambda t: -3 * N / (2 * t**4) + dR(t) / t - R(t) / t**2 - s * m / t**3
        d2w = lambda t: 6 * N / t**5 + d2R(t) / t - 2 * dR(t) / t**2 + 2 * R(t) / t**3 + 3 * s * m / t**4
        psi = lambda t: phi(t) / t
        dpsi = lambda t: dphi(t) / t - phi(t) / t**2
        d2psi = lambda t: d2phi(t) / t - 2 * dphi(t) / t**2 + 2 * phi(t) / t**3

    def d1(z):
        t, y = z[..., 0], z[..., 1:]
        tb = t[..., None, None]
        out = np.zeros(z.shape[:-1] + (dim, dim, dim))
        out[..., 0, 0, 0] = dw(t)
        out[..., 0, 1:, 1:] = dpsi(tb) * sigma(y)
        out[..., 1:, 1:, 1:] = psi(tb[..., None]) * sd1(y)
        return out

    def d2(z):
        t, y = z[..., 0], z[..., 1:]
        tb = t[..., None, None]
        out = np.zeros(z.shape[:-1] + (dim, dim, dim, dim))
        out[..., 0, 0, 0, 0] = d2w(t)
        out[..., 0, 0, 1:, 1:] = d2psi(tb) * sigma(y)
        dsig = dpsi(tb[..., None]) * sd1(y)
        out[..., 0, 1:, 1:, 1:] = dsig
        out[..., 1:, 0, 1:, 1:] = dsig
        out[..., 1:, 1:, 1:, 1:] = psi(tb[..., None, None]) * sd2(y)
        return out

    return d1, d2


def mean_curvature_differences(mcf, x, t, h=1e-5):
    """(dH/dx, dH/dt) at (x, t) from differences of the H that ``slice_stack`` computes.

    Central differences with the kernel's step rule h * max(1, |coordinate|),
    and the second-order backward stencil in t where t + h passes the end of
    the flow's time domain.  One ``slice_stack`` call serves every shift.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    hx = h * np.maximum(1.0, np.abs(x))
    ht = h * max(1.0, abs(t))
    central = t + ht <= mcf.time_domain[1]
    times = [t + ht, t - ht] if central else [t, t - ht, t - 2.0 * ht]
    shifts = hx[:, None] * np.eye(n)
    xs = np.concatenate((x + shifts, x - shifts, np.tile(x, (len(times), 1))))
    stack = slice_stack(mcf, xs, [t] * (2 * n) + times)
    assert not any(stack.errors)
    H = stack.ext[-1]
    dxH = (H[:n] - H[n : 2 * n]) / (2.0 * hx)
    Ht = H[2 * n :]
    dtH = (Ht[0] - Ht[1]) / (2.0 * ht) if central else (3.0 * Ht[0] - 4.0 * Ht[1] + Ht[2]) / (2.0 * ht)
    return dxH, float(dtH)


def extrinsic_geometry(tangents, second_partials, g, gamma, hint):
    """(induced, induced_inv, normal, h, H) of a hypersurface at one point.

    The normal is the last right singular vector of T g, and the covariant
    second partials and h are single 3-operand contractions.
    """
    induced = tangents @ g @ tangents.T
    induced = 0.5 * (induced + induced.T)
    induced_inv = np.linalg.inv(induced)
    nu = np.linalg.svd(tangents @ g)[2][-1]
    nu_g = nu @ g
    nu = nu / np.sqrt(nu_g @ nu)
    nu = -nu if nu_g @ hint < 0.0 else nu
    cov = second_partials + np.einsum("cab,ia,jb->ijc", gamma, tangents, tangents)
    h = -np.einsum("ijc,cd,d->ij", cov, g, nu)
    h = 0.5 * (h + h.T)
    return induced, induced_inv, nu, h, np.einsum("ij,ij->", induced_inv, h)


def flat_ball_grid(grid):
    """(interior points, interior weights, boundary points, boundary weights) of the flat ball.

    The meshgrid construction that ``flat_ball_domain`` once used: sin and
    cos at every node of full 3-d (and 2-d) meshgrids, stacked.
    """
    nr, nth, nph = grid
    rs, wr = _trapezoid_nodes(0.0, 1.0, nr)
    ths, wth = _trapezoid_nodes(POLE_BAND, math.pi - POLE_BAND, nth)
    phs, wph = _periodic_nodes(nph)

    r, th, ph = np.meshgrid(rs[rs != 0.0], ths, phs, indexing="ij")
    a, b, cw = np.meshgrid(wr[rs != 0.0], wth, wph, indexing="ij")
    s, c = np.sin(th), np.cos(th)
    pts = np.stack((r * s * np.cos(ph), r * s * np.sin(ph), r * c), axis=-1).reshape(-1, 3)
    wts = (a * b * cw * r**2 * s).reshape(-1)

    th, ph = np.meshgrid(ths, phs, indexing="ij")
    b, cw = np.meshgrid(wth, wph, indexing="ij")
    s, c = np.sin(th), np.cos(th)
    bnus = np.stack((s * np.cos(ph), s * np.sin(ph), c), axis=-1).reshape(-1, 3)
    bwts = (b * cw * s).reshape(-1)
    return pts, wts, bnus, bwts
