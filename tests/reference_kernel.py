"""The pointwise einsum kernel that the batched kernel replaced, kept as a test oracle.

Each function evaluates a single point with the contractions of the
original single-point code.  Metric and potential callbacks are called on
the bare (d,) point, which the catalog callbacks accept; only analytic
derivative callbacks are supported.
"""

from itertools import combinations_with_replacement, permutations

import numpy as np


def inverse_metric(metric, p):
    return np.linalg.inv(np.asarray(metric.components(p), dtype=float))


def christoffel(metric, p):
    ginv = inverse_metric(metric, p)
    dg = np.asarray(metric.d1(p), dtype=float)
    bracket = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, bracket)
    return 0.5 * (gamma + np.swapaxes(gamma, 1, 2))


def christoffel_d1(metric, p):
    ginv = inverse_metric(metric, p)
    dg = np.asarray(metric.d1(p), dtype=float)
    ddg = np.asarray(metric.d2(p), dtype=float)
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
