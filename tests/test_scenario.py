import json
from collections import Counter
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbal import (SolverConfig, builtin_catalog, builtin_initial, integrate, quantile_init,
                  scenario_validate)
from pbal.cli import main
from pbal.initial import InitialDensity
from pbal.scenario import load_scenario
from pbal.errors import ScenarioFormatError, UnknownScenarioError
from pbal import expressions
from pbal.expressions import bind, bump, bump_and_prime, compile_expression, piecewise_polynomial
from pbal.scenario import SCHEMA, Branch, CATALOG_NAMES, default_sample_grid

from conftest import make_scenario
from pbal.scenario import Potential, Source


# ------------------------------------------------------------- expressions

def test_expression_basic_ops():
    f = compile_expression("2*x + 1 - x/2", ("x",))
    assert f(2.0) == pytest.approx(4.0)
    assert np.allclose(f(np.array([0.0, 2.0])), [1.0, 4.0])


def test_expression_functions():
    f = compile_expression("max(1 - r, 0)", ("r",))
    assert f(0.25) == pytest.approx(0.75)
    assert f(3.0) == 0.0
    g = compile_expression("exp(-abs(x)) + bump(x)", ("x",))
    assert g(0.0) == pytest.approx(2.0)
    assert g(2.0) == pytest.approx(np.exp(-2.0))


def test_expression_powers():
    f = compile_expression("x**2/2", ("x",))
    assert f(3.0) == pytest.approx(4.5)


def test_expression_rejects_names_and_calls():
    with pytest.raises(ScenarioFormatError):
        compile_expression("__import__('os')", ("x",))
    with pytest.raises(ScenarioFormatError):
        compile_expression("y + 1", ("x",))
    with pytest.raises(ScenarioFormatError):
        compile_expression("open(x)", ("x",))


def test_expression_numbers_are_floats():
    assert type(compile_expression("3", ("x",))(1.0)) is float
    assert compile_expression("2**100 + x", ("x",))(0.0) == 2.0 ** 100
    assert compile_expression("-2**2 + x", ("x",))(0.0) == -4.0


@pytest.mark.parametrize("text", ["x + 9**9**9", "x + 2**2**20", "x + 1/(1 - 1)", "(-8)**(1/3) + x",
                                  "x + 1e400", "x + 1e308*10"])
def test_expression_constant_without_float_value_rejected(text):
    # folded at compile time in float arithmetic: an error within a second,
    # never a big-int evaluation
    start = time.perf_counter()
    with pytest.raises(ScenarioFormatError, match="constant"):
        compile_expression(text, ("x",))
    assert time.perf_counter() - start < 1.0


def test_constant_broadcasts_against_every_argument():
    y = np.linspace(-1.0, 1.0, 5)
    assert compile_expression("0", ("t", "x"))(0.5, y).shape == (5,)
    assert compile_expression(2.0, ("t", "x"))(0.5, y).shape == (5,)
    assert compile_expression("t", ("t", "x"))(0.5, y).tolist() == [0.5] * 5


@pytest.mark.parametrize("text", ["t*x", "t", "3"])
def test_expression_wrong_argument_count(text):
    f = compile_expression(text, ("t", "x"))
    assert np.shape(f(0.5, np.zeros(3))) == (3,)
    with pytest.raises(TypeError):
        f(0.5)
    with pytest.raises(TypeError):
        f(0.5, 1.0, 2.0)


def _grammar(leaves):
    """Expression texts of the grammar built from ``leaves``."""
    def grow(parts):
        binop = st.tuples(parts, st.sampled_from("+-*/"), parts).map(" ".join)
        power = st.tuples(parts, st.sampled_from(["2", "0.5", "3"]))
        call = st.tuples(st.sampled_from(["abs", "exp", "bump"]), parts)
        many = st.tuples(st.sampled_from(["min", "max"]),
                         st.lists(parts, min_size=1, max_size=3).map(", ".join))
        return st.one_of(binop.map("({})".format), power.map(lambda p: "({})**{}".format(*p)),
                         st.one_of(call, many).map(lambda p: "{}({})".format(*p)),
                         parts.map("-({})".format))
    return st.recursive(leaves, grow, max_leaves=10)


_numbers = st.sampled_from(["0", "0.5", "2", "1.5", "0.25"])
_any_expression = st.one_of(
    _grammar(st.one_of(st.sampled_from(["t", "x", "rho", "x"]), _numbers)),
    _grammar(st.one_of(st.just("x"), _numbers)),  # x-only
    _grammar(_numbers),  # constants only
)


def _outcome(call):
    """Type, shape and bytes of ``call()``'s result, or the name of what it raised."""
    try:
        with np.errstate(all="ignore"):
            out = call()
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc).__name__
    return type(out), np.shape(out), np.asarray(out).tobytes()


@settings(max_examples=300, deadline=None)
@given(text=_any_expression, t=st.floats(-1.0, 2.0), seed=st.integers(0, 2**32 - 1),
       rho_shape=st.sampled_from([(), (7,), (2, 1)]))
def test_bound_expression_is_bitwise_the_unbound_call(text, t, seed, rho_shape):
    # every part that reads only x (or nothing) is evaluated at bind time, by
    # the same float operations: the bound call returns the same bits, in the
    # same shape and type, as the unbound one (or raises the same error)
    try:
        f = compile_expression(text, ("t", "x", "rho"))
    except ScenarioFormatError:  # a constant part without a float value
        return
    rng = np.random.default_rng(seed)
    xs = np.concatenate(([0.0, -1.0, 1.0], rng.uniform(-2.0, 2.0, 4)))
    xs.setflags(write=False)
    rho = rng.uniform(0.0, 2.0, rho_shape) if rho_shape else float(rng.uniform(0.0, 2.0))
    unbound = _outcome(lambda: f(t, xs, rho))
    assert _outcome(lambda: bind(f, 1, xs)(t, rho)) == unbound
    assert _outcome(lambda: bind(lambda *a: f(*a), 1, xs)(t, rho)) == unbound


def test_constant_expressions_report_their_value():
    assert compile_expression("0", ("t", "x")).constant == 0.0
    assert compile_expression(2, ("t", "x")).constant == 2.0
    assert compile_expression("2*(1 + 0.5)", ("t", "x")).constant == 3.0
    assert compile_expression("0*x", ("t", "x")).constant is None
    assert bind(compile_expression("x", ("t", "x")), 1, np.zeros(3)).constant is None
    assert bind(compile_expression("1", ("t", "x")), 1, np.zeros(3)).constant == 1.0


@pytest.mark.parametrize("text, pieces", [
    ("-abs(x)", ((0.0, 1.0), (0.0, -1.0))),
    ("0.5*x**2", ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5))),
    ("abs(x)**3", ((0.0, 0.0, 0.0, -1.0), (0.0, 0.0, 0.0, 1.0))),
    ("x*abs(x)", ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0))),
    ("(1 + abs(x)/2)**2 - x", ((1.0, -2.0, 0.25), (1.0, 0.0, 0.25))),
    ("exp(-abs(x))", None),
    ("abs(x-1)", None),
    ("min(x,1)", None),
    ("x**0.5", None),
    ("x**2**20", None),
])
def test_piecewise_polynomial_table(text, pieces):
    assert piecewise_polynomial(text, "x") == pieces


def _same_bits(a, b):
    """Equal shapes and bits, any NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a.view(np.int64)[~nan], b.view(np.int64)[~nan]))


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats()


@settings(max_examples=400, deadline=None)
@given(c=st.lists(_EDGE_FLOATS, min_size=1, max_size=expressions.MAX_DEGREE + 1),
       x=_EDGE_FLOATS | st.lists(_EDGE_FLOATS, max_size=8).map(np.array))
def test_polyval_is_bitwise_numpys(c, x):
    from numpy.polynomial import polynomial as P

    with np.errstate(all="ignore"):
        got, want = expressions.polyval(x, c), P.polyval(x, c)
    assert np.ndim(got) == np.ndim(want)
    assert _same_bits(got, want)


def test_bump_shape():
    assert bump(0.0) == pytest.approx(1.0)
    assert bump(1.0) == 0.0
    assert bump(-2.0) == 0.0


def _bump_as_first_written(s):
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    ss = np.where(inside, s, 0.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - ss * ss)), 0.0)
    return float(out) if out.ndim == 0 else out


def _bump_and_prime_as_first_written(s):
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    ss = np.where(inside, s, 0.0)
    one = 1.0 - ss * ss
    e = np.exp(1.0 - 1.0 / one)
    b = np.where(inside, e, 0.0)
    b_prime = np.where(inside, e * (-2.0 * ss / (one * one)), 0.0)
    return (float(b), float(b_prime)) if b.ndim == 0 else (b, b_prime)


def _bits(value):
    return type(value), np.shape(value), np.asarray(value).tobytes()


_BUMP_EDGES = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-200, 1e200, -1.8e308,
               *(sign * np.nextafter(1.0, to) for sign in (1.0, -1.0) for to in (0.0, 2.0)),
               0.9995, 0.99949, 0.999]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                 st.floats(-1.0, 1.0), st.sampled_from(_BUMP_EDGES)),
                       min_size=0, max_size=40),
       shape=st.sampled_from(["flat", "column", "scalar"]))
def test_bump_kernel_is_bitwise_the_first_formulas(values, shape):
    # the one in-place kernel does the textbook float operations on |s| < 1
    # and gives exactly +0.0 elsewhere, NaN and inf included, in the shape
    # and type of the np.where formulas
    if shape == "scalar":
        s = values[0] if values else 0.5
    else:
        s = np.asarray(values, dtype=float).reshape((-1, 1) if shape == "column" else -1)
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # no warning on any input
        got = bump(s), bump_and_prime(s)
    want = _bump_as_first_written(s), _bump_and_prime_as_first_written(s)
    assert _bits(got[0]) == _bits(want[0])
    assert type(got[1]) is tuple and len(got[1]) == 2
    assert [_bits(a) for a in got[1]] == [_bits(a) for a in want[1]]


def test_bump_kernel_edges_and_zero_d_input():
    s = np.array(_BUMP_EDGES)
    assert bump(s).tobytes() == _bump_as_first_written(s).tobytes()
    for got, want in zip(bump_and_prime(s), _bump_and_prime_as_first_written(s)):
        assert got.tobytes() == want.tobytes()
    outside = ~(np.abs(s) < 1.0)
    assert np.all(bump(s)[outside] == 0.0) and not np.any(np.signbit(bump(s)[outside]))
    assert not np.any(np.signbit(bump_and_prime(s)[1][outside]))
    for v in _BUMP_EDGES:
        assert _bits(bump(np.float64(v))) == _bits(_bump_as_first_written(v))
        assert _bits(bump(np.array(v))) == _bits(_bump_as_first_written(v))
        assert [_bits(a) for a in bump_and_prime(v)] == \
            [_bits(a) for a in _bump_and_prime_as_first_written(v)]


# ----------------------------------------------------------------- catalog

def test_catalog_transport_metadata():
    s = builtin_catalog("transport")
    assert s.congestion.v_sup == 1.0
    assert s.source.c_f == 0.0


def test_catalog_repulsive_metadata():
    s = builtin_catalog("repulsive_source")
    assert s.potential.atom_w(0.0) == pytest.approx(-2.0)
    assert s.no_collapse_branch is Branch.W_REPULSIVE


def test_catalog_attractive_metadata():
    s = builtin_catalog("attractive_congested")
    # jump of sign(x) at 0 is 2
    assert s.potential.atom_w(0.0) == pytest.approx(2.0)
    assert s.no_collapse_branch is Branch.V_DECAYS
    # r + r^2 v(r) <= g(r) = 2r on a fine grid
    r = np.linspace(0.0, 10.0, 2001)
    lhs = r + r**2 * s.congestion.v(r)
    assert np.all(lhs <= s.congestion.decay_g(r) + 1e-12)


# The README's catalog table as formulas: v(r), V(t, x), W(x), f(t, x, rho),
# eta_mass(t, r, X) (None: no TV envelope) and the initial blocks.
_TWO_BLOCKS = [(-1.0, -0.5, 1.0), (0.0, 1.0, 0.5)]
CATALOG_FORMULAS = {
    "transport": (lambda r: 1.0 + 0 * r, lambda t, x: 1.0 + 0 * x, lambda x: 0 * x,
                  lambda t, x, rho: 0 * x, None, _TWO_BLOCKS),
    "growth_transport": (lambda r: 1.0 + 0 * r, lambda t, x: 1.0 + 0 * x, lambda x: 0 * x,
                         lambda t, x, rho: rho + 0 * x, None, _TWO_BLOCKS),
    "attractive_congested": (lambda r: np.maximum(1.0 - r, 0.0), lambda t, x: 0 * x, np.abs,
                             lambda t, x, rho: 0 * x, None,
                             [(-0.75, 0.0, 0.9), (0.0, 0.65, 0.5)]),
    "repulsive_source": (lambda r: 1.0 / (1.0 + r), lambda t, x: 0 * x, lambda x: -np.abs(x),
                         lambda t, x, rho: rho * bump(x),
                         lambda t, r, X: 2.0 * r * (1.0 - bump(min(abs(X), 1.0))),
                         [(-2.0 / 3.0, 2.0 / 3.0, 0.75)]),
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_matches_readme_formulas(name):
    v, V, W, f, eta, blocks = CATALOG_FORMULAS[name]
    s = builtin_catalog(name)
    r = np.linspace(0.0, 3.0, 13)
    x = np.linspace(-2.5, 2.5, 21)
    assert np.array_equal(s.congestion.v(r), v(r))
    assert np.array_equal(s.advection.V(0.7, x), V(0.7, x))
    assert np.array_equal(s.potential.W(x), W(x))
    assert np.array_equal(s.source.f(0.7, x, 0.8 + 0 * x), f(0.7, x, 0.8 + 0 * x))
    if eta is None:
        assert s.source.eta_mass is None
    else:
        for R, X in [(0.5, 0.0), (1.5, 0.3), (2.0, 0.9), (1.0, 1.0), (1.0, 4.0)]:
            assert s.source.eta_mass(0.7, R, X) == eta(0.7, R, X)
    rho0 = builtin_initial(name)
    want = InitialDensity.from_blocks(blocks)
    assert np.array_equal(rho0.pdf(x), want.pdf(x))
    assert rho0.support == want.support and rho0.total_mass == want.total_mass


def test_catalog_fingerprint_is_its_name():
    for name in CATALOG_NAMES:
        assert builtin_catalog(name).fingerprint == name


def test_catalog_unknown_name_lists_valid():
    with pytest.raises(UnknownScenarioError) as exc:
        builtin_catalog("does_not_exist")
    for name in CATALOG_NAMES:
        assert name in str(exc.value)


def test_all_catalog_scenarios_validate_clean():
    grid = default_sample_grid()
    assert len(grid) == 1000
    for name in CATALOG_NAMES:
        assert scenario_validate(builtin_catalog(name), grid) == [], name


def test_potential_branches_are_given_exactly_without_pieces():
    W, pieces = np.abs, ((0.0, -1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Potential(W=W, dxW_neg=np.sign, dxW_pos=np.sign, pieces=pieces)
    with pytest.raises(ValueError):
        Potential(W=W, dxW_neg=np.sign)
    pot = Potential(W=W, time_factor=lambda t: 1.0 + t, pieces=pieces)
    assert pot.dxW_neg(-2.0) == -1.0 and pot.dxW_pos(3.0) == 1.0
    assert pot.atom_w(1.0) == 4.0


def test_atom_consistency_limit():
    # (dxW(h) - dxW(-h)) -> atom_w as h -> 0, O(h) * sup|dx2W|
    for name in ("attractive_congested", "repulsive_source"):
        pot = builtin_catalog(name).potential
        atom = pot.atom_w(0.0)
        for h in (1e-2, 1e-4, 1e-6):
            jump = float(pot.dxW_pos(h)) - float(pot.dxW_neg(-h))
            assert abs(jump - atom) <= 2 * h * 0.0 + 1e-12  # dx2W == 0 here


# ---------------------------------------------------------------- validation

def test_validate_congested_transport_clean():
    s = make_scenario(
        v=lambda r: np.maximum(1.0 - np.asarray(r, dtype=float), 0.0),
        vprime=1.0,
        decay_g=lambda r: 2.0 * np.asarray(r, dtype=float),
        V=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        lam=lambda r: 1.0 + np.asarray(r, dtype=float),
        branch=Branch.V_DECAYS,
    )
    assert scenario_validate(s, default_sample_grid()) == []


def test_validate_increasing_v():
    s = make_scenario(v=lambda r: np.asarray(r, dtype=float), v_sup=5.0)
    violations = scenario_validate(s, default_sample_grid())
    mono = [v for v in violations if v.assumption == "A1" and "increasing" in v.message]
    # one violation per consecutive sampled density pair (10 levels -> 9 pairs)
    assert len(mono) == 9


def test_validate_constant_source_fails_at_zero_density():
    src = Source(f=lambda t, x, rho: np.ones_like(np.asarray(x, dtype=float)),
                 c_f=1.0, drho_f_bound=lambda r: 0.0 * np.asarray(r, dtype=float))
    s = make_scenario(source=src)
    violations = scenario_validate(s, [(0.0, 0.0, 0.0)])
    assert any(v.assumption == "A6" for v in violations)


def test_validate_branch_mismatch():
    # attractive atom on the repulsive branch
    s = make_scenario(potential=builtin_catalog("attractive_congested").potential, F=2.0,
                      branch=Branch.W_REPULSIVE)
    violations = scenario_validate(s, default_sample_grid())
    assert any(v.assumption == "A5_W" for v in violations)


def test_validate_missing_decay_g():
    s = make_scenario(branch=Branch.V_DECAYS)
    violations = scenario_validate(s, default_sample_grid())
    assert any(v.assumption == "A5_v" for v in violations)


def test_validate_empty_grid():
    with pytest.raises(ValueError):
        scenario_validate(builtin_catalog("transport"), [])


# -------------------------------------------------------------- file loading

SCENARIO_DOC = {
    "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1",
                   "decay_g": "2*r"},
    "advection": {"V": "1", "dxV": "0", "F": "1", "G": "1", "lambda": "1 + r"},
    "potential": {"W": "0"},
    "source": {"f": "0", "c_f": 0.0},
    "metadata": {"name": "congested_transport", "branch": "v_decays",
                 "initial": {"blocks": [[0.0, 1.0, 0.5]]}},
}


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO_DOC))
    s, rho0 = load_scenario(path)
    assert s.name == "congested_transport"
    assert s.no_collapse_branch is Branch.V_DECAYS
    assert s.congestion.v(0.25) == pytest.approx(0.75)
    assert float(s.advection.V(0.0, 3.0)) == pytest.approx(1.0)
    assert rho0 is not None
    assert rho0.total_mass == pytest.approx(0.5)
    assert scenario_validate(s, default_sample_grid()) == []


def test_load_scenario_zero_potential_spellings(tmp_path):
    for w in ("0", "0.0", "0*x", 0):
        doc = dict(SCENARIO_DOC, potential={"W": w})
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        s, _ = load_scenario(path)
        assert s.potential.is_zero, w


REPULSIVE_SOURCE_DOC = {
    "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
    "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
    "potential": {"W": "-abs(x)", "dxW_neg": "1", "dxW_pos": "-1", "atom_w": -2.0},
    "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1"},
    "metadata": {"name": "repulsive_source_file", "branch": "w_repulsive"},
}


def test_validate_checks_omitted_derivative_bounds(tmp_path):
    # an omitted vprime_bound or drho_f_bound loads as 0; every sampled secant
    # of v = 1/(1 + r), and of f = rho bump(x) where bump(x) != 0, exceeds it
    doc = dict(REPULSIVE_SOURCE_DOC, congestion={"v": "1/(1 + r)", "v_sup": 1.0},
               source={"f": "rho*bump(x)", "c_f": 0.5})
    path = tmp_path / "no_bounds.json"
    path.write_text(json.dumps(doc))
    s, _ = load_scenario(path)
    kinds = Counter(v.assumption for v in scenario_validate(s, default_sample_grid()))
    # 9 neighbouring density pairs; bump(x) != 0 at 2 of the 10 sampled x, all 10 t
    assert kinds == {"A1_vprime": 9, "A6_drho_f": 9 * 2 * 10}

    path.write_text(json.dumps(REPULSIVE_SOURCE_DOC))
    assert scenario_validate(load_scenario(path)[0], default_sample_grid()) == []


def test_scenario_file_matches_catalog_bitwise(tmp_path):
    path = tmp_path / "repulsive.json"
    path.write_text(json.dumps(REPULSIVE_SOURCE_DOC))
    from_file, _ = load_scenario(path)
    p0 = quantile_init(builtin_initial("repulsive_source"), 200)
    cfg = SolverConfig(t_end=1.0, snapshot_times=np.linspace(0.0, 1.0, 9))
    a = integrate(p0, from_file, cfg)
    b = integrate(p0, builtin_catalog("repulsive_source"), cfg)
    assert a.step_stats == b.step_stats
    assert len(a.snapshots) == len(b.snapshots) == 9
    for pa, pb in zip(a.snapshots, b.snapshots):
        assert pa.t == pb.t
        assert np.array_equal(pa.x, pb.x) and np.array_equal(pa.q, pb.q)


def test_load_scenario_accepts_every_schema_key(tmp_path):
    doc = {
        "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1",
                       "decay_g": "2*r"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "abs(x)", "dxW_neg": "-1", "dxW_pos": "1", "dx2W": "0",
                      "atom_w": "2*(1 + t)", "time_factor": "1 + t"},
        "source": {"f": "0", "c_f": 0.0, "drho_f_bound": "0", "eta_mass": "2*r*X + t"},
        "metadata": {"name": "every_key", "branch": "v_decays",
                     "initial": {"blocks": [[0.0, 1.0, 0.5]]}},
    }
    assert {k: tuple(v) for k, v in doc.items() if k != "metadata"} == {
        k: v for k, v in SCHEMA.items() if k != "metadata"}
    path = tmp_path / "every.json"
    path.write_text(json.dumps(doc))
    s, rho0 = load_scenario(path)
    assert s.name == "every_key" and rho0 is not None
    assert s.potential.factor(1.0) == 2.0
    assert s.source.eta_mass(1.0, 2.0, 3.0) == 13.0


def test_source_without_eta_mass_has_no_tv_envelope(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO_DOC))
    s, _ = load_scenario(path)
    assert s.source.eta_mass is None


@pytest.mark.parametrize("eta", ["y", "r +", "9**9**9 + r"])
def test_malformed_eta_mass_names_its_key(tmp_path, eta):
    doc = dict(SCENARIO_DOC, source={"f": "0", "c_f": 0.0, "eta_mass": eta})
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError, match=f"{path}: source.eta_mass"):
        load_scenario(path)


def test_load_scenario_rejects_unknown_keys(tmp_path):
    for bad in ({"potential": dict(SCENARIO_DOC["potential"], dxw_neg="1")},
                {"metdata": {}}):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(dict(SCENARIO_DOC, **bad)))
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            load_scenario(path)


@pytest.mark.parametrize("name", [5, None, ["a"], True])
def test_metadata_name_must_be_a_string(tmp_path, capsys, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(SCENARIO_DOC, metadata=dict(SCENARIO_DOC["metadata"], name=name))))
    with pytest.raises(ScenarioFormatError, match=f"{path}: metadata.name must be a string"):
        load_scenario(path)
    assert main(["run", "--scenario", str(path), "--n", "20", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "metadata.name" in captured.err


def test_load_scenario_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


def test_load_scenario_missing_section(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"congestion": {"v": "1"}}))
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


def test_load_scenario_bad_expression(tmp_path):
    doc = dict(SCENARIO_DOC)
    doc["congestion"] = {"v": "__import__('os').system('true')"}
    path = tmp_path / "evil.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError):
        load_scenario(path)


def test_readme_scenario_example_loads(tmp_path):
    # the documented example must stay a valid document of the current schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):]
    example = section[section.index("```json") + len("```json"):]
    example = example[:example.index("```")]
    path = tmp_path / "readme.json"
    path.write_text(example)
    s, rho0 = load_scenario(path)
    assert s.name == "congested_transport" and rho0 is not None
    assert scenario_validate(s, default_sample_grid()) == []
