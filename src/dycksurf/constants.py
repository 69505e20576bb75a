"""Exact closed-form constants of the extremal flat Dyck's surface.

All headline quantities live in the real quadratic field Q(sqrt(19)) (or
Q(sqrt(17)) for the hyperbolic collar circumference) and are kept in exact
radical form.  Decimal evaluation goes through mpmath with precision doubling
until the requested number of digits is stable, so every printed decimal is
correctly rounded rather than accumulated binary floating error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

_SQUAREFREE_CACHE: dict[int, bool] = {}


class MixedFieldError(ValueError):
    """Arithmetic between elements of distinct quadratic fields."""


def _is_squarefree(n: int) -> bool:
    if n in _SQUAREFREE_CACHE:
        return _SQUAREFREE_CACHE[n]
    ok = n > 0
    k = 2
    m = n
    while ok and k * k <= m:
        if m % (k * k) == 0:
            ok = False
        k += 1
    _SQUAREFREE_CACHE[n] = ok
    return ok


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Values are immutable; arithmetic is exact over Fraction coefficients.
    Elements of different fields do not mix (d is part of the identity of
    the value, even when b == 0).
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        if not _is_squarefree(self.d):
            raise ValueError(f"d={self.d} is not a square-free positive integer")

    # -- field arithmetic ------------------------------------------------

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            if other.d != self.d:
                raise MixedFieldError(
                    f"cannot combine Q(sqrt({self.d})) with Q(sqrt({other.d}))"
                )
            return other
        return QuadraticNumber(_as_fraction(other), Fraction(0), self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        num = self * o.conj()
        return QuadraticNumber(num.a / n, num.b / n, self.d)

    def conj(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    # -- evaluation ------------------------------------------------------

    def to_mpf(self, dps: int | None = None) -> mp.mpf:
        """Value as an mpf at the current (or given) working precision."""
        with mp.workdps(dps or mp.mp.dps):
            return mp.mpf(self.a.numerator) / self.a.denominator + (
                mp.mpf(self.b.numerator) / self.b.denominator
            ) * mp.sqrt(self.d)

    def __float__(self) -> float:
        return float(self.to_mpf(30))


def eval_decimal(build: Callable[[], mp.mpf], digits: int) -> str:
    """Evaluate `build()` (an mpmath expression closure) correctly rounded.

    Precision-doubling (Ziv) strategy: evaluate with a guard band, accept when
    two consecutive precision levels round to the same string.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    guard = 15
    prev = None
    for _ in range(8):
        with mp.workdps(digits + guard):
            s = mp.nstr(
                build(), digits, strip_zeros=False, min_fixed=-mp.inf, max_fixed=mp.inf
            )
        if s == prev:
            return s
        prev = s
        guard *= 2
    raise ArithmeticError("decimal evaluation failed to stabilize")


# -- exact forms of the headline constants ------------------------------

SQRT19 = QuadraticNumber(Fraction(0), Fraction(1), 19)
SQRT17 = QuadraticNumber(Fraction(0), Fraction(1), 17)

#: h^2 = (8 - sqrt(19))/72, the squared collar half-width parameter.
H_SQUARED = (8 - SQRT19) / 72
#: cos of the six-fold cone angle, (1 + sqrt(19))/9.
COS_VARTHETA = (1 + SQRT19) / 9
#: radicand of the extremal area: area = 1 + sqrt(169 - 38 sqrt(19))/12.
AREA_RADICAND = 169 - 38 * SQRT19
#: cosh(ell/2) for the extremal hyperbolic collar circumference.
COSH_HALF_ELL = (5 + SQRT17) / 2
#: tan^2(theta) = 36 h^2 = (8 - sqrt(19))/2.
TAN_SQ_THETA = (8 - SQRT19) / 2


def _mp_h():
    return mp.sqrt(H_SQUARED.to_mpf())


def _mp_theta():
    return mp.atan(mp.sqrt(TAN_SQ_THETA.to_mpf()))


def _mp_alpha():
    return (mp.pi - _mp_theta()) / 2


def _mp_area():
    return 1 + mp.sqrt(AREA_RADICAND.to_mpf()) / 12


def _mp_ell():
    return 2 * mp.acosh(COSH_HALF_ELL.to_mpf())


#: name -> (mpf closure, exact-form description or None)
_REGISTRY: dict[str, tuple[Callable[[], mp.mpf], str | None]] = {
    "h": (_mp_h, "sqrt((8 - sqrt(19))/72)"),
    "theta": (_mp_theta, "arctan(sqrt((8 - sqrt(19))/2))"),
    "alpha": (_mp_alpha, "(pi - theta)/2"),
    "delta": (lambda: mp.mpf(1) / 2 - _mp_h(), "1/2 - sqrt((8 - sqrt(19))/72)"),
    "cos_vartheta": (lambda: COS_VARTHETA.to_mpf(), "(1 + sqrt(19))/9"),
    "area_extremal": (_mp_area, "1 + sqrt(169 - 38 sqrt(19))/12"),
    "systolic_ratio_dyck": (
        lambda: 12 / (12 + mp.sqrt(AREA_RADICAND.to_mpf())),
        "12/(12 + sqrt(169 - 38 sqrt(19)))",
    ),
    "ell": (_mp_ell, "2 arccosh((5 + sqrt(17))/2)"),
    "voronoi_floor": (lambda: mp.pi * H_SQUARED.to_mpf(), "pi (8 - sqrt(19))/72"),
    "loewner": (lambda: 2 / mp.sqrt(3), "2/sqrt(3)"),
    "pu": (lambda: mp.pi / 2, "pi/2"),
    "bavard": (lambda: mp.pi / (2 * mp.sqrt(2)), "pi/(2 sqrt(2))"),
    "genus2_ratio": (lambda: (mp.sqrt(2) + 1) / 3, "(sqrt(2) + 1)/3"),
    "hex_area_min": (
        lambda: _mp_h() * mp.sqrt(1 - 4 * H_SQUARED.to_mpf()),
        "h sqrt(1 - 4 h^2)",
    ),
}

def constant_names() -> list[str]:
    return sorted(_REGISTRY)


def named_constant(name: str, digits: int) -> tuple[str, str | None]:
    """Decimal string of a registry constant plus its exact form if any."""
    try:
        build, exact = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown constant {name!r}") from None
    return eval_decimal(build, digits), exact


def constant_value(name: str, dps: int = 30) -> float:
    """Registry constant as a float, computed at `dps` working digits."""
    build, _ = _REGISTRY[name]
    with mp.workdps(dps):
        return float(build())


@dataclass(frozen=True)
class SurfaceParameters:
    """Defining parameters of the extremal surface (floats, high-precision built)."""

    alpha: float
    theta: float
    h: float
    delta: float
    short_side: float = 1.0 / 3.0

    @classmethod
    def paper(cls) -> "SurfaceParameters":
        """Parameters from the exact radical forms, evaluated at 30 digits."""
        with mp.workdps(30):
            h = float(_mp_h())
            theta = float(_mp_theta())
            alpha = float(_mp_alpha())
            delta = float(mp.mpf(1) / 2 - _mp_h())
        return cls(alpha=alpha, theta=theta, h=h, delta=delta)

    @property
    def leg(self) -> float:
        """Trapezoid leg length h/sin(alpha)."""
        return self.h / math.sin(self.alpha)

    @property
    def long_side(self) -> float:
        """Trapezoid long side 1/3 + 2h/tan(alpha)."""
        return self.short_side + 2 * self.h / math.tan(self.alpha)


def check_defining_relations(p: SurfaceParameters) -> list[tuple[str, float]]:
    """Residuals of the defining relations; all ~0 for the paper parameters."""
    t2 = math.tan(p.theta / 2)
    return [
        ("2h - sin(theta/2)", 2 * p.h - math.sin(p.theta / 2)),
        ("6h - tan(theta)", 6 * p.h - math.tan(p.theta)),
        ("h - cos(alpha)/2", p.h - math.cos(p.alpha) / 2),
        ("delta - (1/2 - h)", p.delta - (0.5 - p.h)),
        (
            "tan^2(theta/2) - 4h^2/(1-4h^2)",
            t2 * t2 - 4 * p.h * p.h / (1 - 4 * p.h * p.h),
        ),
    ]


def relations_ok(p: SurfaceParameters, tol: float = 1e-12) -> bool:
    return all(abs(r) <= tol for _, r in check_defining_relations(p))
