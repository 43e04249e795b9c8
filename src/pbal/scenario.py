"""Model data: congestion, advection, interaction potential and source term.

Each piece carries the envelope metadata (F, G, lambda, g, c_f) used by the
a-priori bound diagnostics, supplied explicitly; the potential's kernel terms
alone are derived (see ``Potential``).  All callables must accept numpy
arrays in their spatial/density arguments.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from . import expressions
from .errors import ScenarioFormatError, UnknownScenarioError
from .initial import InitialDensity


class Branch(enum.Enum):
    """Which of the two no-collapse options the scenario relies on."""

    V_DECAYS = "v_decays"
    W_REPULSIVE = "w_repulsive"


@dataclass(frozen=True)
class Congestion:
    """Non-increasing speed factor v(rho) with its derivative bound."""

    v: Callable
    v_sup: float
    vprime_bound: Callable  # non-decreasing r -> bound on |v'| over [0, r]
    decay_g: Optional[Callable] = None  # non-decreasing g with r + r^2 v(r) <= g(r)


@dataclass(frozen=True)
class Advection:
    """External field V(t, x) with growth envelopes F, G, lambda."""

    V: Callable
    dxV: Callable
    growth_F: Callable  # non-decreasing in t
    growth_G: Callable  # non-decreasing in r
    growth_lambda: Callable  # non-decreasing, 1/lambda non-integrable at infinity


def _derivative(coef, scale=1):
    """Ascending coefficients of the derivative of ``coef``, divided by ``scale``."""
    return [k * coef[k] / scale for k in range(1, len(coef))] or [0.0]


def _moment_chain(k_neg, k_pos):
    """``((g_jump, g_neg), ...)``, one pair per moment m = 0, 1, ...: the m-th
    derivatives, divided by m!, of the jump g+ - g- and of g-, where g- and g+
    are the derivatives of the polynomial pieces k- and k+ of a kernel K, as
    ascending coefficients; empty when g- = g+ = 0.  The prefix-moment
    convolution of a step density with K' sums one term per pair."""
    g_neg = _derivative(k_neg)
    g_jump = [p - n for p, n in itertools.zip_longest(_derivative(k_pos), g_neg, fillvalue=0.0)]
    if not any(g_jump) and not any(g_neg):
        return ()
    chain = [(tuple(g_jump), tuple(g_neg))]
    for m in range(1, len(g_jump)):
        g_jump, g_neg = _derivative(g_jump, m), _derivative(g_neg, m)
        chain.append((tuple(g_jump), tuple(g_neg)))
    return tuple(chain)


@dataclass(frozen=True)
class Potential:
    """Interaction potential W with BV gradient split into one-sided branches.

    ``dxW_neg`` is the gradient on (-inf, 0], ``dxW_pos`` on [0, inf).  When
    W is a polynomial on each side, ``pieces`` holds its ascending
    coefficients (W_neg, W_pos), with equal constant terms (W is continuous
    at 0), and is the one source of every kernel term: the branches are
    derived from it, not given, and dxW and dx2W convolve by exact prefix
    moments.  Any other W is given both branches and convolves by O(N^2)
    differences.  The atom ``atom_w(t)`` is the branch jump at 0 times
    ``factor(t)``.
    """

    W: Callable
    dxW_neg: Optional[Callable] = None
    dxW_pos: Optional[Callable] = None
    time_factor: Optional[Callable] = None
    pieces: Optional[tuple] = None

    def __post_init__(self):
        if (self.dxW_neg is None, self.dxW_pos is None) != (self.pieces is not None,) * 2:
            raise ValueError("dxW_neg and dxW_pos are given exactly when W has no pieces")
        for name, coef in zip(("dxW_neg", "dxW_pos"), self.pieces or ()):
            object.__setattr__(self, name, functools.partial(P.polyval, c=_derivative(coef)))

    # The chains of dxW * rhobar and of (the absolutely continuous part of)
    # dx2W * rhobar, None without pieces, each built on first use and kept.
    @functools.cached_property
    def moment_chain(self):
        return None if self.pieces is None else _moment_chain(*self.pieces)

    @functools.cached_property
    def dx2W_chain(self):
        return None if self.pieces is None else _moment_chain(*map(_derivative, self.pieces))

    @functools.cached_property
    def is_zero(self):
        return self.moment_chain == ()

    def factor(self, t):
        return 1.0 if self.time_factor is None else float(self.time_factor(t))

    def atom_w(self, t):
        """Weight of the Dirac at 0 in D dxW: the jump dxW(0+) - dxW(0-),
        times ``factor(t)``."""
        return (float(self.dxW_pos(0.0)) - float(self.dxW_neg(0.0))) * self.factor(t)


@dataclass(frozen=True)
class Source:
    """Reaction term f(t, x, rho) with |f| <= c_f F(t) rho."""

    f: Callable
    c_f: float
    drho_f_bound: Callable  # non-decreasing r -> bound on |df/drho| over [0, r]
    eta_mass: Optional[Callable] = None  # (t, r, X) -> bound on |D_x f| mass of [-X, X]


@dataclass(frozen=True)
class Scenario:
    congestion: Congestion
    advection: Advection
    potential: Potential
    source: Source
    no_collapse_branch: Branch
    name: str = "custom"
    fingerprint: str = field(default="", compare=False)


@dataclass(frozen=True)
class Violation:
    assumption: str
    message: str
    where: tuple = ()


def scenario_validate(s: Scenario, sample_grid) -> list[Violation]:
    """Sampled admissibility check of the assumptions; violations are data.

    ``sample_grid`` is a non-empty list of (time, position, density) triples.
    Returns every sampled violation; an empty list means admissible at the
    sampled resolution (the assumptions quantify over all points and cannot
    be decided symbolically).
    """
    grid = [(float(t), float(x), float(r)) for (t, x, r) in sample_grid]
    if not grid:
        raise ValueError("sample_grid must be non-empty")
    out: list[Violation] = []
    tol = 1e-10

    ts = sorted({g[0] for g in grid})
    rs = sorted({g[2] for g in grid})
    con, adv, pot, src = s.congestion, s.advection, s.potential, s.source

    # (A1): v non-increasing, bounded by v_sup.
    for r1, r2 in zip(rs[:-1], rs[1:]):
        v1, v2 = float(con.v(r1)), float(con.v(r2))
        if v2 > v1 + tol:
            out.append(Violation("A1", f"v increasing: v({r1})={v1} < v({r2})={v2}", (r1, r2)))
    for r in rs:
        val = float(con.v(r))
        if val < -tol or val > con.v_sup + tol:
            out.append(Violation("A1", f"v({r})={val} outside [0, v_sup={con.v_sup}]", (r,)))

    # Declared derivative bounds, by secant slopes between neighbouring sampled
    # densities: by the mean value theorem a correct bound at the larger
    # density is never exceeded, while an omitted bound (0) is.
    R = np.array(rs)

    def secants(values):
        values = np.broadcast_to(np.asarray(values, dtype=float), R.shape)
        return np.abs(np.diff(values)) / np.diff(R)

    v_bounds = [float(con.vprime_bound(r)) for r in rs[1:]]
    for k, slope in enumerate(secants(con.v(R))):
        r1, r2 = rs[k], rs[k + 1]
        if slope > v_bounds[k] + tol:
            out.append(Violation(
                "A1_vprime",
                f"|v({r2}) - v({r1})|/({r2} - {r1}) = {slope} > vprime_bound({r2}) = {v_bounds[k]}",
                (r1, r2)))
    f_bounds = [float(src.drho_f_bound(r)) for r in rs[1:]]
    for t, x in sorted({(t, x) for t, x, _ in grid}):
        for k, slope in enumerate(secants(src.f(t, x, R))):
            r1, r2 = rs[k], rs[k + 1]
            if slope > f_bounds[k] + tol:
                out.append(Violation(
                    "A6_drho_f",
                    f"|f({t},{x},{r2}) - f({t},{x},{r1})|/({r2} - {r1}) = {slope} "
                    f"> drho_f_bound({r2}) = {f_bounds[k]}",
                    (t, x, r1, r2)))

    # (A2)+(A4): advection growth and one-sided mild growth.
    for t, x, _ in grid:
        F, G, lam = float(adv.growth_F(t)), float(adv.growth_G(abs(x))), float(adv.growth_lambda(abs(x)))
        V = float(adv.V(t, x))
        if abs(V) > F * G + tol:
            out.append(Violation("A2", f"|V({t},{x})|={abs(V)} > F*G={F * G}", (t, x)))
        if np.sign(x) * V > F * lam + tol:
            out.append(Violation("A4", f"sign(x)V({t},{x})={np.sign(x) * V} > F*lambda={F * lam}", (t, x)))

    # (A3): gradient growth.
    for t, x, _ in grid:
        F, G = float(adv.growth_F(t)), float(adv.growth_G(abs(x)))
        fac = pot.factor(t)
        dw = float(pot.dxW_neg(x) if x < 0 else pot.dxW_pos(x)) * fac
        if abs(dw) > F * G + tol:
            out.append(Violation("A3", f"|dxW({x})|={abs(dw)} > F*G={F * G}", (t, x)))

    # (A5): the declared no-collapse branch must be usable.
    if s.no_collapse_branch is Branch.W_REPULSIVE:
        for t in ts:
            w = pot.atom_w(t)
            if w > tol:
                out.append(Violation("A5_W", f"atom_w({t})={w} > 0 on repulsive branch", (t,)))
    else:
        if con.decay_g is None:
            out.append(Violation("A5_v", "branch v_decays declared but decay_g missing", ()))
        else:
            for r in rs:
                lhs = r + r * r * float(con.v(r))
                g = float(con.decay_g(r))
                if lhs > g + tol:
                    out.append(Violation("A5_v", f"r + r^2 v(r) = {lhs} > g({r}) = {g}", (r,)))

    # (A6): source domination, in particular f(., ., 0) = 0.
    for t, x, r in grid:
        F = float(adv.growth_F(t))
        fv = float(src.f(t, x, r))
        if abs(fv) > src.c_f * F * r + tol:
            out.append(Violation("A6", f"|f({t},{x},{r})|={abs(fv)} > c_f*F*rho={src.c_f * F * r}", (t, x, r)))

    return out


def default_sample_grid(t_max=2.0, x_max=5.0, r_max=5.0, n=10):
    """The 10x10x10 admissibility grid used by the validation tests."""
    ts = np.linspace(0.0, t_max, n)
    xs = np.linspace(-x_max, x_max, n)
    rs = np.linspace(0.0, r_max, n)
    return [(t, x, r) for t in ts for x in xs for r in rs]


# ---------------------------------------------------------------------------
# scenario files (JSON with expression strings)

def _rows(path, where, rows, width):
    """``rows``, a list of ``width``-number lists, as a (len, width) float array."""
    if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == width for r in rows):
        raise ScenarioFormatError(f"{path}: {where} must be a list of rows of {width} numbers")
    values = [expressions.finite_float(v, f"{path}: {where}[{i}]")
              for i, row in enumerate(rows) for v in row]
    return np.array(values).reshape(len(rows), width)


def _expr(path, doc, section, key, variables, default=None, required=False):
    """Compile ``doc[section][key]`` (else ``default``); errors name ``path: section.key``."""
    text = doc[section].get(key, default)
    if text is None:
        if required:
            raise ScenarioFormatError(f"{path}: missing required field {section}.{key}")
        return None
    try:
        return expressions.compile_expression(text, variables)
    except ScenarioFormatError as exc:
        raise ScenarioFormatError(f"{path}: {section}.{key}: {exc}") from None


# Points (mirrored for dxW_neg) and times at which declared kernel keys are
# checked.  Without pieces, W's gradient is its central difference at the
# points away from 0, with error _FD_STEP^2/6 |W'''| + 1e-16 |W| / _FD_STEP:
# far inside _FD_TOL for kernels of moderate size.
_CHECK_X = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
_CHECK_T = np.array([0.0, 0.5, 1.0, 2.0])
_CHECK_TOL = 1e-9
_FD_STEP, _FD_TOL = 1e-5, 1e-6


def _check(path, key, declared, points, want, tol=_CHECK_TOL):
    """Reject a declared kernel key whose values at ``points`` are not within
    ``tol`` of ``want``, relative to max(1, |want|) (NaN included)."""
    got = np.broadcast_to(np.asarray(declared(points), dtype=float), points.shape)
    bad = ~(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ScenarioFormatError(f"{path}: potential.{key}({points[k]:g}) = {got[k]:g} "
                                  f"contradicts W, which gives {want[k]:g}")


def _potential(path, expr, body):
    """The potential of a ``potential`` section.  A declared branch or atom is
    compiled only to be checked against the potential's own value."""
    W = expr("potential", "W", ("x",), default="0")
    pieces = expressions.piecewise_polynomial(body.get("W", "0"), "x")
    declared = {key: expr("potential", key, ("x",), required=pieces is None)
                for key in ("dxW_neg", "dxW_pos")}
    atom_w = expr("potential", "atom_w", ("t",))
    time_factor = expr("potential", "time_factor", ("t",))
    # dx2W is compiled, so a malformed one is an error, but nothing reads it
    expr("potential", "dx2W", ("x",))
    if pieces is None:
        potential = Potential(W=W, time_factor=time_factor, **declared)
    else:
        potential = Potential(W=W, time_factor=time_factor, pieces=pieces)
    for key, xs in (("dxW_neg", -_CHECK_X), ("dxW_pos", _CHECK_X)):
        if pieces is None:  # central differences of W, away from the kink
            xs = xs[1:]
            _check(path, key, declared[key], xs,
                   (W(xs + _FD_STEP) - W(xs - _FD_STEP)) / (2.0 * _FD_STEP), _FD_TOL)
        elif declared[key] is not None:
            _check(path, key, declared[key], xs, getattr(potential, key)(xs))
    if atom_w is not None:
        _check(path, "atom_w", atom_w, _CHECK_T, np.array([potential.atom_w(t) for t in _CHECK_T]))
    return potential


# The keys each section of a scenario document may hold; ``metadata`` is the
# one optional section.
SCHEMA = {
    "congestion": ("v", "v_sup", "vprime_bound", "decay_g"),
    "advection": ("V", "dxV", "F", "G", "lambda"),
    "potential": ("W", "dxW_neg", "dxW_pos", "dx2W", "atom_w", "time_factor"),
    "source": ("f", "c_f", "drho_f_bound", "eta_mass"),
    "metadata": ("name", "branch", "initial"),
}


def _reject_unknown(path, where, body, allowed):
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ScenarioFormatError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"allowed: {', '.join(allowed)}"
        )


def load_scenario(path) -> tuple[Scenario, Optional[InitialDensity]]:
    """Load a scenario document; returns the scenario and its inline initial
    density, when one is given under ``metadata.initial``.

    Document shape: top-level objects ``congestion``, ``advection``,
    ``potential``, ``source`` and optionally ``metadata``, holding only the
    keys listed in ``SCHEMA`` (anything else is a format error, so a typo is
    never silently defaulted); model functions are expression
    strings in the documented grammar (variables: r for congestion and the
    radial envelopes, t/x for advection, x for the potential, t/x/rho for the
    source, t/r/X for ``source.eta_mass``).  The scenario's fingerprint is a
    hash of the file's text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc

    import hashlib

    return _build(doc, path, hashlib.sha256(raw.encode()).hexdigest()[:16])


def _build(doc, path, fingerprint) -> tuple[Scenario, Optional[InitialDensity]]:
    """The scenario and initial density of a parsed document; errors name
    ``path: section.key``."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    _reject_unknown(path, "top level", doc, SCHEMA)
    doc = {"metadata": {}, **doc}
    for section, keys in SCHEMA.items():
        if section not in doc:
            raise ScenarioFormatError(f"{path}: missing section {section!r}")
        if not isinstance(doc[section], dict):
            raise ScenarioFormatError(f"{path}: section {section!r} must be an object")
        _reject_unknown(path, f"section {section!r}", doc[section], keys)

    con_d, _, pot_d, src_d, meta = (doc[k] for k in SCHEMA)
    expr = functools.partial(_expr, path, doc)

    congestion = Congestion(
        v=expr("congestion", "v", ("r",), required=True),
        v_sup=expressions.finite_float(con_d.get("v_sup", 1.0), f"{path}: congestion.v_sup"),
        vprime_bound=expr("congestion", "vprime_bound", ("r",), default="0"),
        decay_g=expr("congestion", "decay_g", ("r",)),
    )
    advection = Advection(
        V=expr("advection", "V", ("t", "x"), default="0"),
        dxV=expr("advection", "dxV", ("t", "x"), default="0"),
        growth_F=expr("advection", "F", ("t",), default="1"),
        growth_G=expr("advection", "G", ("r",), default="1"),
        growth_lambda=expr("advection", "lambda", ("r",), default="1"),
    )
    potential = _potential(path, expr, pot_d)
    source = Source(
        f=expr("source", "f", ("t", "x", "rho"), default="0"),
        c_f=expressions.finite_float(src_d.get("c_f", 0.0), f"{path}: source.c_f"),
        drho_f_bound=expr("source", "drho_f_bound", ("r",), default="0"),
        eta_mass=expr("source", "eta_mass", ("t", "r", "X")),
    )
    branch_txt = str(meta.get("branch", "w_repulsive")).lower()
    try:
        branch = Branch(branch_txt)
    except ValueError:
        raise ScenarioFormatError(
            f"{path}: metadata.branch must be one of {[b.value for b in Branch]}"
        ) from None

    scenario = Scenario(
        congestion=congestion,
        advection=advection,
        potential=potential,
        source=source,
        no_collapse_branch=branch,
        name=str(meta.get("name", "custom")),
        fingerprint=fingerprint,
    )

    rho0 = None
    init_cfg = meta.get("initial")
    if init_cfg is not None:
        if isinstance(init_cfg, dict) and "blocks" in init_cfg:
            rho0 = InitialDensity.from_blocks(
                _rows(path, "metadata.initial.blocks", init_cfg["blocks"], 3))
        elif isinstance(init_cfg, dict) and "samples" in init_cfg:
            pts = _rows(path, "metadata.initial.samples", init_cfg["samples"], 2)
            rho0 = InitialDensity.from_samples(pts[:, 0], pts[:, 1])
        else:
            raise ScenarioFormatError(f"{path}: metadata.initial needs 'blocks' or 'samples'")
    return scenario, rho0


# ---------------------------------------------------------------------------
# builtin catalog: scenario documents, built by the same code as files

_CATALOG = {
    "transport": {
        "congestion": {"v": "1", "v_sup": 1.0},
        "advection": {"V": "1", "dxV": "0", "F": "1", "G": "1", "lambda": "1"},
        "potential": {"W": "0"},
        "source": {"f": "0*(x + rho)", "c_f": 0.0},
        # v == 1 admits no superlinearly-dominating g with divergent 1/g
        # integral, so the transport entries rely on w = 0 <= 0 instead
        "metadata": {"name": "transport", "branch": "w_repulsive",
                     # two-block step, total mass 1 (vacuum gap between the blocks)
                     "initial": {"blocks": [[-1.0, -0.5, 1.0], [0.0, 1.0, 0.5]]}},
    },
    "growth_transport": {
        "congestion": {"v": "1", "v_sup": 1.0},
        "advection": {"V": "1", "dxV": "0", "F": "1", "G": "1", "lambda": "1"},
        "potential": {"W": "0"},
        "source": {"f": "rho + 0*x", "c_f": 1.0, "drho_f_bound": "1"},
        "metadata": {"name": "growth_transport", "branch": "w_repulsive",
                     "initial": {"blocks": [[-1.0, -0.5, 1.0], [0.0, 1.0, 0.5]]}},
    },
    "attractive_congested": {
        "congestion": {"v": "max(1 - r, 0)", "v_sup": 1.0, "vprime_bound": "1",
                       "decay_g": "2*r"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "abs(x)"},
        "source": {"f": "0*(x + rho)", "c_f": 0.0},
        # a generic asymmetric profile of mass 1: a single uniform block would
        # evolve self-similarly under the congested attraction (the quantile
        # discretizations of every N coincide exactly), hiding refinement effects
        "metadata": {"name": "attractive_congested", "branch": "v_decays",
                     "initial": {"blocks": [[-0.75, 0.0, 0.9], [0.0, 0.65, 0.5]]}},
    },
    "repulsive_source": {
        "congestion": {"v": "1/(1 + r)", "v_sup": 1.0, "vprime_bound": "1"},
        "advection": {"V": "0", "dxV": "0", "F": "2", "G": "1", "lambda": "1"},
        "potential": {"W": "-abs(x)"},
        # |D_x f| <= rho |bump'|, and the bump's gradient has total variation 2 bump(0)
        "source": {"f": "rho*bump(x)", "c_f": 0.5, "drho_f_bound": "1",
                   "eta_mass": "2*r*(1 - bump(min(abs(X), 1)))"},
        "metadata": {"name": "repulsive_source", "branch": "w_repulsive",
                     "initial": {"blocks": [[-2.0 / 3.0, 2.0 / 3.0, 0.75]]}},
    },
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog_entry(name: str) -> tuple[Scenario, InitialDensity]:
    """The catalog scenario ``name`` and its initial density; the scenario's
    fingerprint is its name."""
    try:
        doc = _CATALOG[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; valid names: {', '.join(CATALOG_NAMES)}"
        ) from None
    return _build(doc, f"catalog scenario {name!r}", name)


def builtin_catalog(name: str) -> Scenario:
    return catalog_entry(name)[0]


def builtin_initial(name: str) -> InitialDensity:
    """Default initial density paired with each catalog scenario."""
    try:
        return catalog_entry(name)[1]
    except UnknownScenarioError as exc:
        raise ScenarioFormatError(f"no builtin initial density: {exc.args[0]}") from None
