"""Golden report digests: one small configuration per suite.

Each test runs one configuration and pins the sha256 of its rendered JSON
report, so a change that moves any report byte (a number's last digit, a
key, an error message) fails here first.  A change that alters report
bytes on purpose updates the digest below and says why in CHANGES.md.

The digests were taken on x86-64 with Python 3.11 and numpy 2.4 (one BLAS
thread); another numpy or BLAS build may round the last digits
differently.
"""

import collections
import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cansol.cli import RunConfig, main, run
from cansol.reports import ResidualReport, _plain, _Renderer, render_json

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
        "16433cd3230b3ea27973893d2ef7019979d282d2aaccd6064fd883f4b300ad5c",
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
        "33094ef29655bcc6211bc0bd7413dfa19865fbdb1e7ffb837a95a7410e27bb0f",
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
        "1b59c1aa1b963e2a0acaa0c75e86da5af974b5fd76ec46188e9cf585ef7f5bd0",
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

# the benchmark's large quadrature grid: the refined (20, 64, 8) grid spans
# 10 quadrature chunks, and the zero potential checks the 16 pi target too
GOLDEN["functionals/zero-large"] = (
    {"suite": "functionals", "samples": {"potential": "zero", "grid": [10, 32, 4]}},
    "b75d401b6266762aa42c2a522f8691bd804f694bffa6d6f6269f3dd6f9fb4f33",
)
GOLDEN["functionals/gaussian-large"] = (
    {"suite": "functionals", "samples": {"potential": "gaussian", "grid": [10, 32, 4]}},
    "dcb1c162d178cea50936a5213c298ef2f6dfcd577a0de2f58d03d2b07b7abf49",
)


def _sphere3(direction):
    return {"name": "round_sphere", "params": {"dim": 3, "r0": 1.0, "direction": direction}}


# the other variants of the per-variant suites, keyed "suite/variant"
for _variant, _digests in (
    ("shrinking", ("3c5175679e3193845c2a8c19a6bb73353c8c4e527afd33713f36e51bcba13811",
                   "e6bd45f9146eb1e3c2cdb7694a5694321b33a500d2cd4075a77c2a8cfa18ca0a")),
    ("steady", ("5a85dc0707c853fd6e8a9f25d705296bc3f342084102a89b64817d277c638a3b",
                "bcfd3a923a5eec3b01906fdb12aaafc181ad1bd96364dc12b515e7487c4081d9")),
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
    ("expanding", "forward", "7a6415dc70d6ccdcc23a5e3c1f3a38e3ce9ed5d4fd74c77aabeb3dfacec48aac"),
    ("shrinking", "backward", "dc53756b2b689329c6e5425aa47e5f7d8368fb6700757291634bdfdb477f763e"),
):
    GOLDEN[f"christoffel_crosscheck/{_variant}"] = (
        {"suite": "christoffel_crosscheck", "variant": _variant,
         "background": {"name": "round_sphere", "params": {"dim": 3, "direction": _direction}},
         "N_list": [100.0], "samples": {"count": 2, "seed": 5, "backend": "analytic"}},
        _digest,
    )

# eight samples and two N: a flat background, where the spatial symbols
# vanish and the shrinking G^0_bc slip still shows, and the dim-5 sphere
# through the FD backend
# the soliton kernel beyond the dim-3 sphere: the dim-5 sphere in every
# variant, and the flat steady fixture, whose defect is an exact zero
for _variant, _direction, _digest in (
    ("expanding", "forward", "f02fffa0884be6c88f3e9e0ecc1c8113f5d1eee8f310d87d99685f81f72a49e3"),
    ("shrinking", "backward", "0d88af10e1ca1403ee8a89b078c0a48781734236bf6b76fe37142fe8a726c393"),
    ("steady", "backward", "22f2317e24f63c4ab91e213195e39fa52ec365a00c517f7d68e8f0c59907a7ed"),
):
    GOLDEN[f"ricci_soliton_residual/{_variant}-sphere-dim5"] = (
        {**GOLDEN["ricci_soliton_residual"][0], "variant": _variant,
         "background": {"name": "round_sphere", "params": {"dim": 5, "r0": 1.0, "direction": _direction}}},
        _digest,
    )
GOLDEN["ricci_soliton_residual/steady-flat"] = (
    {**GOLDEN["ricci_soliton_residual"][0], "variant": "steady",
     "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "backward"}}},
    "da407b1a96a0630bd107f39b611da3baae4f2dbfb29ebafa3dc2110ff348e0df",
)

GOLDEN["christoffel_crosscheck/flat-count8"] = (
    {"suite": "christoffel_crosscheck", "variant": "shrinking",
     "background": {"name": "euclidean_static", "params": {"dim": 3, "direction": "backward"}},
     "N_list": [100.0, 10000.0], "samples": {"count": 8, "seed": 5, "backend": "analytic"}},
    "b1670ccfac8c2f08da053b5029a53135938ca5d26e1de98ed5634731d22cecd0",
)
GOLDEN["christoffel_crosscheck/sphere-dim5-count8"] = (
    {"suite": "christoffel_crosscheck", "variant": "expanding",
     "background": {"name": "round_sphere", "params": {"dim": 5, "direction": "forward"}},
     "N_list": [100.0, 10000.0], "samples": {"count": 8, "seed": 5, "backend": "fd"}},
    "c2f682ef9368411cdd0ed32a7cfa01f2fda0fb689039f6efc7b08a6a176ddbd1",
)

# track geometries beyond the dim-3 sphere: the n = 4 sphere reaches every
# factor kind and mixed partial of the embedding; the equator is a second
# flow in a curved (backward sphere) ambient
GOLDEN["mcf_soliton_residual/sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0],
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "forward"}}},
    "623abd8b386cf384bc94aa384ec83633a0bc17ed7de16659b0d655c9104a28c3",
)
# the dim-5 sphere in the backward variants; steady at N = 1e2 is still
# pre-asymptotic, hence its N list
GOLDEN["mcf_soliton_residual/shrinking-sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "shrinking",
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "backward"}}},
    "d534d94e32af401d9f2f1ea3a67eeb07196e77ca1719d4201179ba8f0d4eb42b",
)
GOLDEN["mcf_soliton_residual/steady-sphere-dim5"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "steady", "N_list": [1000.0, 10000.0],
     "background": {"name": "euclidean_static", "params": {"dim": 5, "direction": "backward"}}},
    "d0268f8b9dffa7d09c2a2498e8b3948f87a1bca29986d6de88bcc7ba37855b04",
)
GOLDEN["mcf_soliton_residual/steady-equator"] = (
    {**GOLDEN["mcf_soliton_residual"][0], "variant": "steady", "background": _sphere3("backward"),
     "mcf": {"name": "equator_in_sphere", "params": {}}},
    "e88919334a3e574dada32e90d750e897a535041ded2caca6c627829b9d9b738b",
)
# the equator at given times, two of them below the canonical sampling floor
# and one past the background's horizon: the slices are shared by both N, and
# sigma is not constant here, so this pins the N-independent half of the
# track evaluation where it does work
GOLDEN["mcf_soliton_residual/steady-equator-times"] = (
    {**GOLDEN["mcf_soliton_residual/steady-equator"][0], "N_list": [1000.0, 100000.0],
     "samples": {"seed": 5, "times": [0.01, 0.3, 0.55, 0.8, 0.95, 0.02, 1.5, 0.4]}},
    "5b73da7bdccd903388e02922c1795e0680bfd30f5722c446c4e0b2f9b88bb96f",
)
# given times, one per point: the middle time lies outside the background's
# domain, so the report holds two Ricci records, the stripped-track record
# and one error
GOLDEN["harnack_limits/times"] = (
    {**GOLDEN["harnack_limits"][0], "samples": {"seed": 11, "times": [0.5, 2.0, 0.7]}},
    "b668af2240e171d5f7ebec0f4547bb7b4a6b9c34e1ac2d09e61ba249b3683426",
)
# sixteen potentials reach every monomial of the dim-3 cubic
GOLDEN["lott_match/count16"] = (
    {**GOLDEN["lott_match"][0], "samples": {"count": 16, "seed": 5}},
    "6f0ee5f76f0c7cbc01cd91387ef92c2240e53a366597a63e5715c0feaa78729e",
)

# the benchmark's track workload at full size, as its seed 1 generates it:
# 64 samples, 72 of the 256 sweep pairs below the sampling floor, and the
# Harnack and Lott suites over 64 points and 64 potentials
GOLDEN["mcf_soliton_residual/track-sweep-sphere3"] = (
    {"suite": "mcf_soliton_residual", "variant": "expanding", "background": FLAT3,
     "mcf": SHRINKING_SPHERE, "N_list": [1000.0, 10000.0, 100000.0, 1000000.0],
     "samples": {"count": 64, "seed": 1641411168}},
    "7f83af2b51d5a10c23f1e4b7379cd4d2e8bf820749baeb3966bacf42107a4093",
)
GOLDEN["harnack_limits/track-sweep"] = (
    {**GOLDEN["harnack_limits"][0], "samples": {"count": 64, "seed": 3112422837}},
    "ec9f3bae411d6bee2418a355db0e8984cc420184f42d4dd6c6f27b9f1465ca95",
)
GOLDEN["lott_match/track-sweep"] = (
    {**GOLDEN["lott_match"][0], "samples": {"count": 64, "seed": 2543531098}},
    "30990d81c1afb546285e1a333dcdcb764082cd47ac87a700b3871e72a7caed8d",
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


def _encoder_bytes(report):
    """The report as the standard library's JSON encoder writes it."""
    return json.dumps(_plain(report.as_dict()), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_renderer_writes_the_encoder_bytes(suite):
    report = run(RunConfig.from_dict(GOLDEN[suite][0]))
    assert render_json(report) == _encoder_bytes(report)


def test_renderer_writes_the_encoder_bytes_for_every_kind_of_value():
    report = ResidualReport(suite="functionals", config={"name": "r\u00e9sum\u00e9 \u2207f \"q\"\n"})
    report.records = [
        {"nan": float("nan"), "inf": float("inf"), "-inf": -np.inf, "np-inf": np.float64(-np.inf)},
        {"empty list": [], "empty dict": {}, "tuple": (1, 2.5), "none": None},
        {"nested": np.arange(6.0).reshape(2, 3), "empty array": np.empty((0, 2)),
         "mixed": [np.bool_(True), np.int64(-7), np.float32(0.1), {"deep": [[], {}]}]},
        {"bools": [True, False, np.bool_(False)], "int": 10**20, "zero": -0.0, "tiny": 5e-324},
    ]
    report.summary = {"status": "\u00fc"}
    assert render_json(report) == _encoder_bytes(report)


def test_renderer_writes_a_shared_container_at_each_indent():
    # the renderer writes a container once per indent: the shared list below
    # sits at two depths, and two arrays of one shape each pass through a
    # temporary list, whose rows may take the same ids in turn
    shared = [0.25, -1.5, [3.0, None]]
    report = ResidualReport(suite="functionals", config={"point": shared})
    report.records = [{"x": shared, "N": 1.0}, {"x": shared, "N": 2.0},
                      {"a": np.arange(6.0).reshape(3, 2)}, {"b": -np.arange(6.0).reshape(3, 2)}]
    report.summary = {"deep": {"deeper": [shared, {"x": shared}]}}
    report.errors = [{"x": shared, "error": "e"}]
    assert render_json(report) == _encoder_bytes(report)


def test_renderer_falls_back_to_the_encoder():
    report = ResidualReport(suite="functionals", config={})
    # keys the encoder converts to strings
    report.summary = {"by_N": {100: 1.0, 2.5: 2.0}}
    assert render_json(report) == _encoder_bytes(report)
    # a value the encoder rejects raises its error
    report.summary = {"bad": object()}
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_json(report)


def _renderer_bytes(report):
    """The report as the renderer writes it, without the encoder fallback."""
    return _Renderer().render(report.as_dict(), "") + "\n"


class _Float(float):
    pass


class _Str(str):
    pass


_SHARED_DICT = {"b": 1.5, "a": [2.5, -0.0]}

# values whose text the renderer's memos could mix up: equal values that print
# differently, one value of several types, keys that are format directives,
# and one dict shape or one dict object in several places
RENDERER_EDGE_CASES = {
    "zero, then minus zero": [0.0, -0.0, np.float64(0.0), np.float64(-0.0), {"z": 0.0, "m": -0.0}, -0.0],
    "minus zero, then zero": [-0.0, 0.0, np.float64(-0.0), np.float64(0.0), {"m": -0.0, "z": 0.0}, 0.0],
    "float, float64 and float32 of one value": [0.1, np.float64(0.1), np.float32(0.1),
                                                np.float64(np.float32(0.1)), 0.1, np.float32(0.1)],
    "bool, int and float": [True, 1, 1.0, False, 0, 0.0, 1, True],
    "float, int and bool": [1.0, 1, True, 0.0, 0, False],
    "keys with percent signs": {"%": 1.0, "%s": [2.0], "a%sb%d%%": "%s", "%(x)s": {"%": "%%"}},
    "one key set in two orders": [{"b": 1.0, "a": 2.0}, {"a": 3.0, "b": 4.0}, {"b": 5.0, "a": 6.0}],
    "one dict at two indents": {"top": _SHARED_DICT, "deeper": [_SHARED_DICT, {"x": _SHARED_DICT}]},
    "subclasses": {"float": _Float(2.5), "str": _Str("s%"), "ordered": collections.OrderedDict(b=1.0, a=[2.0]),
                   "named": collections.namedtuple("Pair", "x y")(0.5, 0.25), "one key": {"k": 7}},
    "0-d arrays": {"float": np.array(1.5), "nan": np.array(np.nan), "int": np.array(3), "bool": np.array(True),
                   "in a list": [np.array(-0.0), np.array(2.5), np.array(False)]},
}


@pytest.mark.parametrize("case", sorted(RENDERER_EDGE_CASES))
def test_renderer_edge_cases_write_the_encoder_bytes(case):
    report = ResidualReport(suite="functionals", config={"case": case})
    report.records = [RENDERER_EDGE_CASES[case], {"again": RENDERER_EDGE_CASES[case]}]
    report.summary = {"value": RENDERER_EDGE_CASES[case]}
    assert _renderer_bytes(report) == _encoder_bytes(report)
    assert render_json(report) == _encoder_bytes(report)


def test_a_0d_array_renders_as_its_scalar():
    report = ResidualReport(suite="functionals", config={})
    report.summary = {"v": np.array(1.5), "nan": np.array(np.nan), "in a list": [np.array(7)]}
    text = render_json(report)
    assert '"v": 1.5' in text and '"nan": "nan"' in text and '"in a list": [\n      7\n    ]' in text
    assert text == _encoder_bytes(report)


_scalars = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from([0.0, -0.0, np.float64(-0.0), 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(-3, 3) | st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.sampled_from('a%s"\u00e9\u2207\\\n '), max_size=4),
)
_keys = st.text(st.sampled_from('ab%s"\u00e9\u2207'), max_size=3)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=8,
)


@st.composite
def reports_with_shared_containers(draw):
    """A report whose containers sit in several places, at several indents."""
    pool = draw(st.lists(st.lists(_values, max_size=3) | st.dictionaries(_keys, _values, max_size=3),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), max_size=5))
    report = ResidualReport(suite="functionals", config={"picks": picks})
    report.records = [{"x": pool[0], "value": draw(_values)}, {"x": pool[0], "nested": {"deeper": picks}}]
    report.summary = draw(st.dictionaries(_keys, _values, max_size=3))
    return report


@settings(max_examples=30, deadline=None)
@given(reports_with_shared_containers())
def test_renderer_writes_the_encoder_bytes_for_any_report(report):
    assert render_json(report) == _encoder_bytes(report)


# the values a fuzzed key takes: wrong types, non-finite and small numbers,
# never a large valid size that would allocate without bound
FUZZ_VALUES = [None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, 2.7]


def _key_paths(node, path=()):
    """The path of every key and list entry below ``node``, catalog parameters included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@st.composite
def mutated_golden_configs(draw):
    """A golden config with one value replaced, one key added or one key dropped."""
    cfg = copy.deepcopy(GOLDEN[draw(st.sampled_from(sorted(GOLDEN)))][0])
    paths = list(_key_paths(cfg))
    kind = draw(st.sampled_from(["set", "add", "drop"]))
    if kind == "add":
        objects = [()] + [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, draw(st.sampled_from(objects)))["extra"] = 1
        return cfg
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    path = draw(st.sampled_from(paths))
    parent = _at(cfg, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_golden_configs())
def test_mutated_golden_config_exits_cleanly(cfg):
    # a config error exits 2 with its message and writes no report; any
    # other outcome is a verdict, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg_path), "--output", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("config error: ")
            assert list(Path(tmp).iterdir()) == [cfg_path]
