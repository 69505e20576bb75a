import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import pytest

from dycksurf import constants as cst
from dycksurf.constants import (
    MixedFieldError,
    QuadraticNumber,
    SurfaceParameters,
    check_defining_relations,
    eval_decimal,
    named_constant,
)


def q19(a, b):
    return QuadraticNumber(Fraction(a), Fraction(b), 19)


class TestQuadraticArithmetic:
    def test_norm_identity(self):
        # (1 + sqrt19)(1 - sqrt19) = 1 - 19 = -18
        prod = q19(1, 1) * q19(1, -1)
        assert prod == q19(-18, 0)

    def test_seven_digit_evaluation(self):
        x = q19(1, 1) / 9
        assert eval_decimal(x.to_mpf, 7) == "0.5954332"

    def test_conjugation(self):
        assert q19(8, -1).conj() == q19(8, 1)

    def test_division_exact(self):
        x = q19(3, 2)
        y = q19(1, -1)
        assert (x / y) * y == x

    def test_mixed_field_rejected(self):
        with pytest.raises(MixedFieldError):
            q19(1, 1) + QuadraticNumber(Fraction(1), Fraction(1), 17)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q19(1, 0) / q19(0, 0)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            QuadraticNumber(Fraction(1), Fraction(1), 12)

    def test_scalar_mixing(self):
        assert 2 * q19(1, 1) - 1 == q19(1, 2)

    def test_field_ops_random(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            x = q19(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-5, 5))
            y = q19(rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            assert (x + y) - y == x
            assert (x * y).conj() == x.conj() * y.conj()
            if y.norm() != 0:
                assert (x / y) * y == x


class TestRounding:
    def test_round_trip_2n_digits(self):
        # 2N-digit evaluation rounded to N digits equals direct N-digit evaluation
        for name in cst.constant_names():
            s1, _ = named_constant(name, 12)
            s2, _ = named_constant(name, 24)
            with mp.workdps(40):
                rounded = mp.nstr(
                    mp.mpf(s2), 12, strip_zeros=False, min_fixed=-mp.inf, max_fixed=mp.inf
                )
            assert rounded == s1, name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_constant("nope", 5)

    def test_paperish_decimals(self):
        val = float(named_constant("h", 10)[0])
        assert abs(val - 0.2248796) < 5e-8
        val = float(named_constant("area_extremal", 10)[0])
        assert abs(val - 1.15279) < 5e-6
        val = float(named_constant("ell", 10)[0])
        assert abs(val - 4.397146) < 5e-7
        val = float(named_constant("voronoi_floor", 10)[0])
        assert abs(val - 0.15887) < 5e-6

    def test_exact_forms_attached(self):
        s, exact = named_constant("area_extremal", 8)
        assert exact is not None and "169" in exact


class TestDefiningRelations:
    def test_paper_parameters(self):
        p = SurfaceParameters.paper()
        for name, r in check_defining_relations(p):
            assert abs(r) <= 1e-12, name

    def test_perturbed_h_flagged(self):
        p = SurfaceParameters.paper()
        pp = dataclasses.replace(p, h=p.h + 0.01)
        res = dict(check_defining_relations(pp))
        assert abs(res["2h - sin(theta/2)"] - 0.02) < 1e-9

    def test_rebuilt_from_exact_h(self):
        with mp.workdps(40):
            h = float(mp.sqrt(cst.H_SQUARED.to_mpf()))
        p = SurfaceParameters.paper()
        assert abs(p.h - h) < 1e-15

    def test_area_expressions_agree(self):
        # 2*delta + 3h sqrt(1-4h^2) == 1 + sqrt(169 - 38 sqrt19)/12
        with mp.workdps(40):
            h = mp.sqrt(cst.H_SQUARED.to_mpf())
            lhs = 2 * (mp.mpf(1) / 2 - h) + 3 * h * mp.sqrt(1 - 4 * h * h)
            rhs = 1 + mp.sqrt(cst.AREA_RADICAND.to_mpf()) / 12
            assert abs(lhs - rhs) < 1e-30

    def test_cone_angle_cosine(self):
        p = SurfaceParameters.paper()
        assert abs(math.cos(2 * math.pi + p.theta) - float(cst.COS_VARTHETA)) < 1e-12


def test_eval_decimal_stability():
    s = eval_decimal(lambda: mp.sqrt(2), 30)
    with mp.workdps(50):
        assert abs(mp.mpf(s) - mp.sqrt(2)) < mp.mpf(10) ** -29
