"""The ``visible_on_catalog`` flags of the form-correction tables, checked.

For every variant the printed and the rederived closed forms are evaluated
over the catalog backgrounds and flows at two values of N.  A symbol block
must differ somewhere (relative > 1e-9) exactly when a correction with
``visible_on_catalog=True`` is registered for it.  Every other block must
agree, the blocks of the invisible corrections included, and a track block
with no registered correction must agree to the last bit.
"""

import numpy as np
import pytest

from cansol.backgrounds import VARIANT_SIGNS, model_background, model_mcf
from cansol.canonical import (
    _SYMBOL_CLASSES,
    CHRISTOFFEL_CORRECTIONS,
    VARIANTS,
    build_canonical_metric,
    canonical_christoffel_closed_forms,
)
from cansol.track import SECOND_FF_CORRECTIONS, build_track, closed_form_second_ff

N_VALUES = (1e2, 1e4)
POINTS = 3
REL = 1e-9

# symbol -> (form, block) of closed_form_second_ff; the steady leading
# prefactor scales the whole "leading" matrix
TRACK_BLOCKS = {
    "h^S_ij": ("full", (slice(1, None), slice(1, None))),
    "h^S_i0": ("full", (slice(1, None), 0)),
    "h^S_00": ("full", (0, 0)),
    "leading prefactor": ("leading", (slice(None), slice(None))),
}


def catalog(variant):
    """(background, its catalog flows) for every catalog background of the variant's direction."""
    direction = "forward" if VARIANT_SIGNS[variant] > 0 else "backward"
    flat = ["shrinking_sphere_flat", "static_plane_flat"]
    out = [
        (model_background("euclidean_static", dim=3, direction=direction), flat),
        (model_background("round_sphere", dim=3, direction=direction), ["equator_in_sphere"]),
    ]
    if direction == "backward":
        out.append((model_background("gaussian_shrinker_flat", dim=3), flat))
    return out


def differs(printed, derived):
    """Relative difference above REL, against the larger entry (at least 1)."""
    a, b = np.atleast_1d(printed), np.atleast_1d(derived)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) > REL * scale


def expected_flags(corrections, variant, symbols):
    return {
        s: any(c.visible_on_catalog for c in corrections if (c.variant, c.symbol) == (variant, s))
        for s in symbols
    }


def test_every_correction_names_a_checked_block():
    assert {c.symbol for c in CHRISTOFFEL_CORRECTIONS} <= set(_SYMBOL_CLASSES)
    assert {c.symbol for c in SECOND_FF_CORRECTIONS} <= set(TRACK_BLOCKS)
    assert {c.variant for c in CHRISTOFFEL_CORRECTIONS + SECOND_FF_CORRECTIONS} <= set(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_christoffel_flags_match_the_catalog(variant):
    seen = dict.fromkeys(_SYMBOL_CLASSES, False)
    rng = np.random.default_rng(3)
    for bg, _ in catalog(variant):
        for N in N_VALUES:
            cm = build_canonical_metric(bg, variant, N)
            ts = rng.uniform(cm.t_min, bg.time_domain[1], POINTS)
            pts = bg.sample_points(POINTS, rng)
            [(derived, printed)] = canonical_christoffel_closed_forms([cm], pts, ts)
            # each sample's blocks on their own scale
            for i in range(POINTS):
                for symbol, idx in _SYMBOL_CLASSES.items():
                    seen[symbol] |= differs(printed[idx][i], derived[idx][i])
    assert seen == expected_flags(CHRISTOFFEL_CORRECTIONS, variant, _SYMBOL_CLASSES)


@pytest.mark.parametrize("variant", VARIANTS)
def test_second_ff_flags_match_the_catalog(variant):
    seen = dict.fromkeys(TRACK_BLOCKS, False)
    registered = {c.symbol for c in SECOND_FF_CORRECTIONS if c.variant == variant}
    rng = np.random.default_rng(5)
    for bg, flows in catalog(variant):
        for N in N_VALUES:
            cm = build_canonical_metric(bg, variant, N)
            for name in flows:
                track = build_track(model_mcf(name, bg), cm)
                ts = rng.uniform(cm.t_min, track.mcf.time_domain[1], POINTS)
                forms = closed_form_second_ff(track, track.mcf.sample_xs(POINTS, rng), ts)
                # each sample's blocks on their own scale
                for i in range(POINTS):
                    for symbol, (form, idx) in TRACK_BLOCKS.items():
                        derived, printed = (a[i] for a in forms[form])
                        seen[symbol] |= differs(printed[idx], derived[idx])
                        # a block with no registered correction is the same formula
                        if symbol not in registered:
                            assert np.array_equal(printed[idx], derived[idx]), (symbol, name, N)
    assert seen == expected_flags(SECOND_FF_CORRECTIONS, variant, TRACK_BLOCKS)
