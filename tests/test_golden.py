"""Golden report digests: one small configuration per suite.

Each test runs one configuration and pins the sha256 of its rendered JSON
report, so a change that moves any report byte (a number's last digit, a
key, an error message) fails here first.  A change that alters report
bytes on purpose updates the digest below and says why in CHANGES.md.

The digests were taken on x86-64 with Python 3.11 and numpy 2.4 (one BLAS
thread); another numpy or BLAS build may round the last digits
differently.
"""

import hashlib

import pytest

from cansol.cli import RunConfig, run
from cansol.reports import render_json

FLAT3 = {"name": "euclidean_static", "params": {"dim": 3, "direction": "forward"}}
SHRINKING_SPHERE = {"name": "shrinking_sphere_flat", "params": {"r0": 1.0}}

GOLDEN = {
    "ricci_soliton_residual": (
        {
            "suite": "ricci_soliton_residual",
            "variant": "expanding",
            "background": {"name": "round_sphere",
                           "params": {"dim": 3, "r0": 1.0, "direction": "forward"}},
            "N_list": [100.0, 1000.0],
            "samples": {"count": 4, "seed": 7},
        },
        "93e2615e32e3e989e36b55299bdd34a5f921c68e0754686b299a3981a9f624bb",
    ),
    # six of the 24 track points fall below the canonical sampling floor
    # and are recorded as errors
    "mcf_soliton_residual": (
        {
            "suite": "mcf_soliton_residual",
            "variant": "expanding",
            "background": FLAT3,
            "mcf": SHRINKING_SPHERE,
            "N_list": [100.0, 1000.0],
            "samples": {"count": 12, "seed": 3},
        },
        "be2449094277d980f0f6de3c0aaec9c752e736c89c30fb5c57ac2b97e85299d9",
    ),
    "christoffel_crosscheck": (
        {
            "suite": "christoffel_crosscheck",
            "variant": "steady",
            "background": {"name": "round_sphere", "params": {"dim": 3, "direction": "backward"}},
            "N_list": [100.0],
            "samples": {"count": 2, "seed": 5, "backend": "fd"},
        },
        "04295bb267dbfd2b157561f447bdb5f8c96cba682fb350170a6c36c6b07eaf0e",
    ),
    "harnack_limits": (
        {
            "suite": "harnack_limits",
            "background": FLAT3,
            "mcf": SHRINKING_SPHERE,
            "N_list": [1000.0, 2000.0, 4000.0],
            "samples": {"count": 3, "seed": 11},
        },
        "880e9afe1aab0c655a924e314450303633ee8c4dd06b9ec92b071a08c66675a6",
    ),
    "lott_match": (
        {
            "suite": "lott_match",
            "background": FLAT3,
            "mcf": SHRINKING_SPHERE,
            "samples": {"count": 3, "seed": 5},
        },
        "6db332711b93809a820cbe23ca12cf66d7f34221c791389df41ebcdfee44dc96",
    ),
    "functionals": (
        {"suite": "functionals", "samples": {"potential": "gaussian", "grid": [10, 24, 4]}},
        "6276ecb32091647560f0eee5eac1eeaec5eb62e227df240f3197c23026f6e637",
    ),
}



def _sphere3(direction):
    return {"name": "round_sphere", "params": {"dim": 3, "r0": 1.0, "direction": direction}}


# the other variants of the per-variant suites, keyed "suite/variant"
for _variant, _digests in (
    ("shrinking", ("2eff68ee4f84e9379c8c477c02fb657bd95102a556f3e2e448bee6cf28db98cd",
                   "882480f90ef60727648b211c4f5dc119d6888fd9553bc37b801d54ba057150f1")),
    ("steady", ("1e6aa7af111a15330c0715171405ae903b33725e3693c20d366ee478b7af234b",
                "7e2447b7652bc008e9c2576236c2475cee599ca2e4fd96f502a33cdfb00ceb11")),
):
    GOLDEN[f"ricci_soliton_residual/{_variant}"] = (
        {**GOLDEN["ricci_soliton_residual"][0], "variant": _variant,
         "background": _sphere3("backward")},
        _digests[0],
    )
    GOLDEN[f"mcf_soliton_residual/{_variant}"] = (
        {**GOLDEN["mcf_soliton_residual"][0], "variant": _variant,
         "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "backward"}}},
        _digests[1],
    )
for _variant, _direction, _digest in (
    ("expanding", "forward", "c04aae5bfc8b62514f62c85c9446dfc60b314c67aaee55212e0c1b8035edde7e"),
    ("shrinking", "backward", "e30ea46339f7d28f534d7bd5cf21352ca75e045e36ed14fe40d6e0c85ef52cdb"),
):
    GOLDEN[f"christoffel_crosscheck/{_variant}"] = (
        {"suite": "christoffel_crosscheck", "variant": _variant,
         "background": {"name": "round_sphere", "params": {"dim": 3, "direction": _direction}},
         "N_list": [100.0], "samples": {"count": 2, "seed": 5, "backend": "analytic"}},
        _digest,
    )

# track geometries beyond the dim-3 sphere: the n = 4 sphere reaches every
# factor kind and mixed partial of the embedding; the equator is a second
# flow in a curved (backward sphere) ambient
GOLDEN["mcf_soliton_residual/sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0],
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "forward"}}},
    "4be30f96658351331b535f158918bf36828d5227db33d82b777547f02ae0f4a9",
)
# the dim-5 sphere in the backward variants; steady at N = 1e2 is still
# pre-asymptotic, hence its N list
GOLDEN["mcf_soliton_residual/shrinking-sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "shrinking",
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "backward"}}},
    "07ea8ad530454b481778e201549621cffad61c9da81bbd04aa24886d4a992bf9",
)
GOLDEN["mcf_soliton_residual/steady-sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "steady", "N_list": [1000.0, 10000.0],
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "backward"}}},
    "4db0985031b52531625f51cf6c23484543f4e94829951e9d4691cfbd74a991c5",
)
GOLDEN["mcf_soliton_residual/steady-equator"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "steady", "background": _sphere3("backward"),
     "mcf": {"name": "equator_in_sphere", "params": {}}},
    "bb5b1199ed56eda469053604c84cb7f14bdc40944d51690ec6de43324ee88f0b",
)


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_report_digest_is_pinned(suite):
    raw, digest = GOLDEN[suite]
    report = run(RunConfig.from_dict(raw))
    assert report.passed
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == digest


def test_every_suite_is_pinned():
    from cansol.cli import SUITES

    assert sorted({raw["suite"] for raw, _ in GOLDEN.values()}) == sorted(SUITES)


def test_every_variant_of_the_variant_suites_is_pinned():
    from cansol.canonical import VARIANTS

    for suite in ("ricci_soliton_residual", "mcf_soliton_residual", "christoffel_crosscheck"):
        pinned = {raw["variant"] for raw, _ in GOLDEN.values() if raw["suite"] == suite}
        assert pinned == set(VARIANTS), suite
