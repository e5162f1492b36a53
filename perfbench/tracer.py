"""Per-layer tracing of gasylv from outside its source tree.

``Tracer`` replaces the public functions and methods of gasylv.algebra,
charpoly, sylvester, serialize and cli by timing wrappers, in every
namespace where the program looks them up (a name imported with
``from .charpoly import char_poly`` is a second binding and is wrapped
there too), and puts every original back on exit.  Private names are
never touched, so the program can rename or delete them freely.

Each wrapped call is a span.  A span's self time is its duration minus
the duration of the spans it called; the tracer's own bookkeeping is
charged to neither.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

import gasylv
from gasylv import algebra, charpoly, cli, serialize, sylvester

LAYER_MODULES = (algebra, charpoly, sylvester, serialize, cli)

# Namespaces that hold bindings of the layer functions.
_NAMESPACES = (gasylv,) + LAYER_MODULES

PRODUCT = "algebra.product"
LINEAR = "algebra.linear"
CONJ = "algebra.conj"

_ALGEBRA_KINDS = {
    "conjugate": CONJ,
    "grade_project": CONJ,
    "center_project": CONJ,
    "natural": CONJ,
    "sharp": CONJ,
    "scalar_via_conjugations": CONJ,
}

_MULTIVECTOR_METHODS = {
    "__mul__": PRODUCT,
    "__add__": LINEAR,
    "__sub__": LINEAR,
    "__neg__": LINEAR,
    "scale": LINEAR,
    "__truediv__": LINEAR,
    "hat": CONJ,
    "tilde": CONJ,
    "triangle": CONJ,
    "square": CONJ,
    "grade_project": CONJ,
}

_CHARPOLY_METHODS = ("determinant", "adjugate")


def public_functions(module):
    """Public functions defined in module (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Context manager: wraps on entry, restores on exit, keeps totals."""

    def __init__(self):
        self._stack = [[0.0]]
        self._saved = []
        self._seen_sigs = set()
        self.first_product_s = defaultdict(list)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.reset()

    def reset(self):
        """Clear every total except the first-product times."""
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.products = 0
        self.pair_mults = 0
        self.warm_product_s = defaultdict(list)
        self.charpoly_calls = 0
        self.charpoly_steps = 0
        self.solve_s = defaultdict(list)
        self.q_values = []
        self.methods = Counter()
        self.chars = 0
        self.op_error = None

    # -- installation ----------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for module in LAYER_MODULES:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(module).items():
                kind = _ALGEBRA_KINDS.get(name, "algebra.other") if module is algebra else layer
                wrappers[fn] = self._wrap(fn, kind, self._hook_for(module, name))
        try:
            for ns in _NAMESPACES:
                for name, value in list(vars(ns).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._replace(ns, name, wrappers[value])
            for name, kind in _MULTIVECTOR_METHODS.items():
                fn = vars(algebra.Multivector)[name]
                wrapped = self._wrap_product(fn) if kind == PRODUCT else self._wrap(fn, kind, None)
                self._replace(algebra.Multivector, name, wrapped)
            for name in _CHARPOLY_METHODS:
                fn = vars(charpoly.CharPolyData)[name]
                self._replace(charpoly.CharPolyData, name, self._wrap(fn, "charpoly", None))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _replace(self, owner, name, wrapper):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, kind, hook):
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        def traced(*args, **kwargs):
            t0 = perf_counter()
            frame = [0.0]
            stack.append(frame)
            result = None
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if self.op_error is None:
                    self.op_error = type(exc).__name__
                raise
            finally:
                dur = perf_counter() - t1
                stack.pop()
                calls[kind] += 1
                self_s[kind] += dur - frame[0]
                incl_s[fn.__name__, kind] += dur
                if hook is not None:
                    hook(args, result, dur)
                stack[-1][0] += perf_counter() - t0

        return _mark(traced, fn)

    def _wrap_product(self, fn):
        # Only Multivector x Multivector is a geometric product; a scalar
        # right operand is handed to scale(), which is traced itself.
        traced = self._wrap(fn, PRODUCT, self._product_hook)
        multivector = algebra.Multivector

        def dispatch(u, v):
            if isinstance(v, multivector):
                return traced(u, v)
            return fn(u, v)

        return _mark(dispatch, fn)

    # -- layer-specific counts ------------------------------------------------

    def _product_hook(self, args, result, dur):
        u, v = args
        cu, cv = u.coeffs, v.coeffs
        self.products += 1
        self.pair_mults += (len(cu) - cu.count(0)) * (len(cv) - cv.count(0))
        sig = u.sig
        key = (sig.p, sig.q)
        if key in self._seen_sigs:
            self.warm_product_s[sig.dim].append(dur)
        else:
            self._seen_sigs.add(key)
            self.first_product_s[sig.dim].append(dur)

    def _hook_for(self, module, name):
        if module is charpoly and name == "char_poly":
            return self._charpoly_hook(1)
        if module is charpoly and name == "generalized_coeffs":
            return self._charpoly_hook(2)
        if module is sylvester and name == "solve":
            return self._solve_hook
        if module is sylvester and name in ("solve_general", "solve_general_odd"):
            method = sylvester.GENERAL if name == "solve_general" else sylvester.GENERAL_ODD
            return lambda args, result, dur: self.methods.update((method,))
        if module is sylvester and name == "solve_closed":
            return lambda args, result, dur: self.methods.update((args[1],))
        if module is serialize and name == "parse_multivector":
            return lambda args, result, dur: self._add_chars(len(args[0]))
        if module is serialize and name == "format_multivector":
            return lambda args, result, dur: self._add_chars(len(result) if result else 0)
        return None

    def _charpoly_hook(self, divisor):
        def hook(args, result, dur):
            self.charpoly_calls += 1
            self.charpoly_steps += args[0].sig.charpoly_degree // divisor
        return hook

    def _solve_hook(self, args, result, dur):
        self.solve_s[args[0].sig.dim].append(dur)
        if result is not None:
            self.q_values.append(result.q)

    def _add_chars(self, count):
        self.chars += count


def _mark(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.perfbench_span = True
    return wrapper


def installed_wrappers():
    """Names in the layer namespaces that are bound to a wrapper now."""
    found = []
    owners = _NAMESPACES + (algebra.Multivector, charpoly.CharPolyData)
    for owner in owners:
        for name, value in vars(owner).items():
            if getattr(value, "perfbench_span", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
