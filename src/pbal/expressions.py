"""Minimal safe expression grammar for scenario files.

Supported: numbers, the declared variable names, ``+ - * / **``, unary minus,
and the calls ``abs``, ``min``, ``max``, ``exp``, ``bump``.  ``bump(s)`` is the
standard mollifier ``exp(1 - 1/(1 - s^2))`` on ``|s| < 1``, zero outside.
All functions are numpy-vectorized so compiled expressions accept arrays.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ScenarioFormatError


def bump(s):
    """Smooth bump supported on (-1, 1), normalized so bump(0) = 1."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    ss = np.where(inside, s, 0.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - ss * ss)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def bump_prime(s, b=None):
    """Derivative of ``bump``; pass ``b = bump(s)`` to reuse its exponential."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    ss = np.where(inside, s, 0.0)
    one = 1.0 - ss * ss
    if b is None:
        b = np.exp(1.0 - 1.0 / one)
    out = np.where(inside, b * (-2.0 * ss / (one * one)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _minimum(*args):
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _maximum(*args):
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


_FUNCTIONS = {
    "abs": np.abs,
    "min": _minimum,
    "max": _maximum,
    "exp": np.exp,
    "bump": bump,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _check_node(node, variables):
    if isinstance(node, ast.Expression):
        _check_node(node.body, variables)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ScenarioFormatError(f"operator not allowed: {ast.dump(node.op)}")
        _check_node(node.left, variables)
        _check_node(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ScenarioFormatError(f"operator not allowed: {ast.dump(node.op)}")
        _check_node(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ScenarioFormatError("only abs/min/max/exp/bump calls are allowed")
        if node.keywords:
            raise ScenarioFormatError("keyword arguments are not allowed")
        for arg in node.args:
            _check_node(arg, variables)
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ScenarioFormatError(f"unknown name {node.id!r}; allowed: {sorted(variables)}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ScenarioFormatError(f"constant not allowed: {node.value!r}")
    else:
        raise ScenarioFormatError(f"syntax not allowed: {type(node).__name__}")


def compile_expression(text, variables):
    """Compile ``text`` into a vectorized callable of the named ``variables``.

    The returned callable takes the variables positionally, in the order given.
    """
    if isinstance(text, (int, float)):
        value = float(text)
        return lambda *args, _v=value: (
            np.full_like(np.asarray(args[0], dtype=float), _v) if args else _v
        )
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ScenarioFormatError(f"cannot parse expression {text!r}: {exc}") from exc
    _check_node(tree, set(variables))
    code = compile(tree, filename="<scenario>", mode="eval")
    names = tuple(variables)

    def evaluate(*args):
        if len(args) != len(names):
            raise TypeError(f"expected {len(names)} arguments {names}, got {len(args)}")
        env = dict(zip(names, args))
        env.update(_FUNCTIONS)
        result = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - AST whitelisted
        # Constant expressions must still broadcast against array arguments.
        if np.isscalar(result) and args and not np.isscalar(args[0]):
            first = np.asarray(args[0], dtype=float)
            if first.ndim > 0:
                return np.full(first.shape, float(result))
        return result

    evaluate.source = str(text)
    return evaluate
