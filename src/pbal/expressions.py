"""Minimal safe expression grammar for scenario files.

Supported: numbers, the declared variable names, ``+ - * / **``, unary minus,
and the calls ``abs``, ``min``, ``max``, ``exp``, ``bump``.  ``bump(s)`` is the
standard mollifier ``exp(1 - 1/(1 - s^2))`` on ``|s| < 1``, zero outside.
All functions are numpy-vectorized so compiled expressions accept arrays.
Numbers are compiled as floats and constant subexpressions are folded at
compile time, so evaluation never does big-int arithmetic and a constant
that overflows (``9**9**9``) is a format error, not a hang.  ``constant`` is
the value of a body folded to a number, else None; ``bind`` fixes a variable
to an array, evaluating once every part that reads only it.
``piecewise_polynomial`` reads the one-sided polynomial pieces of an
expression, when it has them, as coefficient data, and ``polyval`` is the one
evaluator of such coefficients.
"""

from __future__ import annotations

import ast
import functools
import operator

import numpy as np

from .errors import ScenarioFormatError


def bump(s):
    """Smooth bump supported on (-1, 1), normalized so bump(0) = 1."""
    return bump_and_prime(s, prime=False)[0]


def bump_and_prime(s, prime=True):
    """``(bump(s), bump'(s))``, or ``(bump(s),)`` when not ``prime``:
    ``bump_kernel``'s formulas on |s| < 1, exactly 0.0 elsewhere, NaN and inf
    included."""
    s = np.asarray(s, dtype=float)
    x = s.reshape(s.shape or 1)  # so that every ufunc below returns an array
    inside = np.abs(x) < 1.0
    # -0.0 outside keeps every step finite (1 - ss^2 = 1) and makes the prime
    # +0.0 there, e^0 * (-2 ss/..) = 1 * +0.0
    out = bump_kernel(np.where(inside, x, -0.0), prime)
    # fresh: zeroing in place raised the peak RSS of validate
    out = (np.where(inside, out[0], 0.0),) + out[1:]
    return tuple(float(a[0]) for a in out) if s.ndim == 0 else out


def bump_kernel(ss, prime=True):
    """exp(1 - 1/(1 - ss^2)) and, when ``prime``, its derivative
    e * (-2 ss / (1 - ss^2)^2), by the float operations of these formulas in
    one pass of in-place operations on the float array ``ss``, which it
    overwrites.  Every entry must lie strictly inside (-1, 1), or be -0.0
    where the caller masks the bump itself."""
    one = np.multiply(ss, ss, out=None if prime else ss)
    np.subtract(1.0, one, out=one)
    b = np.divide(1.0, one, out=None if prime else one)
    np.subtract(1.0, b, out=b)
    np.exp(b, out=b)
    if not prime:
        return (b,)
    np.multiply(ss, -2.0, out=ss)
    np.multiply(one, one, out=one)
    np.divide(ss, one, out=ss)
    return b, np.multiply(b, ss, out=ss)


def finite_float(value, what):
    """``value`` as a float; a value that is not a number, is too large for a
    float, or is NaN or infinite is a format error naming ``what``."""
    try:
        if isinstance(value, (bool, str)):  # float() reads True and "1", but neither is a number
            raise TypeError
        out = float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{what} is too large for a float") from None
    except (TypeError, ValueError):
        raise ScenarioFormatError(f"{what} is not a real number: {_quote(value)}") from None
    if not np.isfinite(out):
        raise ScenarioFormatError(f"{what} is not finite: {out}")
    return out


_FUNCTIONS = {
    "abs": np.abs,
    "min": lambda *args: functools.reduce(np.minimum, args),
    "max": lambda *args: functools.reduce(np.maximum, args),
    "exp": np.exp,
    "bump": bump,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)
_TOO_DEEP = "expression is nested too deeply or too long to compile"


def _quote(value):
    """``repr(value)`` for a message, cut to its first 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}..."


_FOLD = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
         ast.Div: operator.truediv, ast.Pow: operator.pow,
         ast.USub: operator.neg, ast.UAdd: operator.pos}


class _FloatConstants(ast.NodeTransformer):
    """One walk over a parsed expression: syntax outside the grammar is a
    format error, numbers become floats, and operators on constants are
    folded into constants."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = variables

    def generic_visit(self, node):  # every node type without a visit_ method
        raise ScenarioFormatError(f"syntax not allowed: {type(node).__name__}")

    def visit_Name(self, node):
        if node.id not in self.variables:
            raise ScenarioFormatError(f"unknown name {_quote(node.id)}; allowed: {sorted(self.variables)}")
        return node

    def visit_Constant(self, node):
        if type(node.value) not in (int, float):  # also rejects True and False
            raise ScenarioFormatError(f"constant not allowed: {_quote(node.value)}")
        return self._constant(node, float, node.value)

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ScenarioFormatError("only abs/min/max/exp/bump calls are allowed")
        if node.keywords:
            raise ScenarioFormatError("keyword arguments are not allowed")
        name, n, least = node.func.id, len(node.args), node.func.id in ("min", "max")
        if n == 0 or n > 1 and not least:
            arity = "at least" if least else "exactly"
            raise ScenarioFormatError(f"{name}() takes {arity} one argument, got {n}")
        node.args = [self.visit(arg) for arg in node.args]
        return node

    def visit_UnaryOp(self, node):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ScenarioFormatError(f"operator not allowed: {ast.dump(node.op)}")
        node.operand = self.visit(node.operand)
        if isinstance(node.operand, ast.Constant):
            return self._constant(node, _FOLD[type(node.op)], node.operand.value)
        return node

    def visit_BinOp(self, node):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ScenarioFormatError(f"operator not allowed: {ast.dump(node.op)}")
        node.left, node.right = self.visit(node.left), self.visit(node.right)
        if isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
            return self._constant(node, _FOLD[type(node.op)], node.left.value, node.right.value)
        return node

    def _constant(self, node, op, *values):
        try:
            value = op(*values)
        except ArithmeticError as exc:
            raise ScenarioFormatError(
                f"expression {_quote(self.text)} has a constant part with no float value: {exc}"
            ) from None
        # a negative number to a fractional power is complex: not a real number
        value = finite_float(value, f"a constant part of expression {_quote(self.text)}")
        return ast.copy_location(ast.Constant(value), node)


class Expression:
    """A vectorized callable of ``variables``, taken positionally: a ``lambda``
    whose body is the whitelisted, folded expression and which sees no
    builtins, only the grammar's functions and the ``fixed`` values.  A scalar
    result is broadcast against every argument, ``fixed`` included."""

    def __init__(self, text, variables, fixed=None):
        self.text, self.variables, fixed = text, tuple(variables), fixed or {}
        try:
            if isinstance(text, (int, float)):
                body = ast.Constant(finite_float(text, "a numeric expression"))
            else:
                body = _FloatConstants(text, set(variables)).visit(ast.parse(text, mode="eval").body)
            self.constant = body.value if isinstance(body, ast.Constant) else None
            env = {"__builtins__": {}, **_FUNCTIONS, **fixed}
            lam = ast.parse(f"lambda {', '.join(v for v in variables if v not in fixed)}: 0",
                            mode="eval")
            lam.body.body = _bind(body, env) if fixed else body
            code = compile(ast.fix_missing_locations(lam), filename="<scenario>", mode="eval")
        except SyntaxError as exc:
            raise ScenarioFormatError(f"cannot parse expression {_quote(text)}: {exc}") from exc
        except (RecursionError, MemoryError):
            raise ScenarioFormatError(_TOO_DEEP) from None
        self._fn, self._fixed = eval(code, env), tuple(fixed.values())  # noqa: S307

    def __call__(self, *args):
        result = self._fn(*args)
        if not np.isscalar(result):
            return result
        shape = np.broadcast(*args, *self._fixed).shape
        return np.full(shape, float(result)) if shape else result


compile_expression = Expression  # text (a string or a number) and variable names


def _bind(body, env):
    """``body`` with each largest operation or call that reads no variable
    outside ``env`` replaced by a new name in ``env`` for its value."""
    nodes = list(ast.walk(body))  # breadth first: an operand after its operation
    free = {}  # whether a node reads a variable outside env
    for node in reversed(nodes):
        free[node] = (isinstance(node, ast.Name) and node.id not in env
                      or any(free[c] for c in ast.iter_child_nodes(node)))

    def fold(node):
        if free[node] or not isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)):
            return node
        key = f"_{len(env)}"
        env[key] = eval(compile(ast.Expression(node), "<scenario>", "eval"), env)  # noqa: S307
        return ast.Name(key, ast.Load())

    for node in nodes:
        if free[node]:  # then no operation above it was folded
            for field, value in ast.iter_fields(node):
                if isinstance(value, list):
                    value[:] = map(fold, value)
                elif isinstance(value, ast.expr):
                    setattr(node, field, fold(value))
    return fold(body)


def bind(fn, index, values):
    """``fn`` with its argument at ``index`` fixed to ``values``.  An
    ``Expression`` evaluates here, once, each part that reads no other
    variable, by the unbound call's float operations in the same order, so a
    call returns that call's bits and shape (maybe the same array each time:
    do not write to it).  Any other callable gets a closure."""
    if isinstance(fn, Expression):
        return Expression(fn.text, fn.variables, {fn.variables[index]: values})
    return lambda *rest: fn(*rest[:index], values, *rest[index:])


# ---------------------------------------------------------------------------
# one-sided polynomial pieces

MAX_DEGREE = 8  # higher degrees are left to the generic evaluation


class _NotPolynomial(Exception):
    pass


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return c


def _add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0.0) + (b[k] if k < len(b) else 0.0)
                  for k in range(n)])


def _mul(a, b):
    if len(a) + len(b) - 2 > MAX_DEGREE:
        raise _NotPolynomial
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _constant_value(pieces):
    neg, pos = pieces
    if len(neg) == 1 and neg == pos:
        return neg[0]
    raise _NotPolynomial


def _pieces(node, var):
    """(neg, pos) ascending coefficient lists of ``node`` on var <= 0 / >= 0."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        c = [float(node.value)]
        return c, c
    if isinstance(node, ast.Name) and node.id == var:
        return [0.0, 1.0], [0.0, 1.0]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        neg, pos = _pieces(node.operand, var)
        if isinstance(node.op, ast.USub):
            return [-c for c in neg], [-c for c in pos]
        return neg, pos
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _pieces(node.left, var)
        right = _pieces(node.right, var)
        if isinstance(node.op, ast.Add):
            return tuple(_add(a, b) for a, b in zip(left, right))
        if isinstance(node.op, ast.Sub):
            return tuple(_add(a, [-c for c in b]) for a, b in zip(left, right))
        if isinstance(node.op, ast.Mult):
            return tuple(_mul(a, b) for a, b in zip(left, right))
        if isinstance(node.op, ast.Div):
            d = _constant_value(right)
            return tuple(_trim([c / d for c in a]) for a in left)
        n = _constant_value(right)
        if n < 0 or n != int(n):
            raise _NotPolynomial
        n = int(n)
        if max(len(a) for a in left) == 1:
            return tuple([a[0] ** n] for a in left)
        if n > MAX_DEGREE:
            raise _NotPolynomial
        out = []
        for a in left:
            p = [1.0]
            for _ in range(n):
                p = _mul(p, a)
            out.append(p)
        return tuple(out)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "abs" and len(node.args) == 1 and not node.keywords):
        neg, pos = _pieces(node.args[0], var)
        if len(neg) == 1 and neg == pos:
            return [abs(neg[0])], [abs(pos[0])]
        # |a x| is -|a| x on the left and |b x| = |b| x on the right
        if len(neg) == 2 and len(pos) == 2 and neg[0] == 0.0 and pos[0] == 0.0:
            return [0.0, -abs(neg[1])], [0.0, abs(pos[1])]
    raise _NotPolynomial


def piecewise_polynomial(text, var):
    """The one-sided polynomial pieces ``(W_neg, W_pos)`` of ``text`` in ``var``.

    Each piece is the tuple of ascending coefficients of the expression on
    ``var <= 0`` and on ``var >= 0``.  Recognised: numbers, ``var``,
    ``+ - *``, division by a constant, ``**`` with a non-negative integer
    exponent, unary ``-``/``+`` and ``abs`` of ``a*var`` (``abs(x)`` is ``-x``
    on the left and ``x`` on the right).  Anything else, a degree above
    ``MAX_DEGREE`` or a non-finite coefficient gives ``None``.
    """
    if isinstance(text, (int, float)):
        c = (float(text),)
        return c, c
    try:
        neg, pos = _pieces(ast.parse(str(text), mode="eval").body, var)
    except (SyntaxError, _NotPolynomial, ArithmeticError, ValueError):
        return None
    except (RecursionError, MemoryError):
        raise ScenarioFormatError(_TOO_DEEP) from None
    if not np.all(np.isfinite(neg + pos)):
        return None
    return tuple(neg), tuple(pos)


def polyval(x, c):
    """The polynomial of ascending coefficients ``c`` at ``x`` (an array or a
    scalar), by the Horner steps of ``numpy.polynomial.polynomial.polyval``
    in its order, so with its bits: ``c[-1] + x*0``, then ``c[k] + out*x`` for
    k from high to low."""
    out = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + out * x
    return out
