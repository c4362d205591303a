import pytest

from tetrascreen import centerexpr as CE
from tetrascreen._backend import Q
from tetrascreen.errors import (
    CenterExprError,
    EvaluationSingular,
    ExprSyntaxError,
    IrrationalInExactMode,
    NotHomogeneous,
    NotSymmetric,
)


class TestParser:
    def test_valid_trees(self):
        CE.parse_center_expr("b + c - a")
        CE.parse_center_expr("a^r*(b+c)")
        CE.parse_center_expr("1/(a^2*(b+c)-a*b*c)")
        CE.parse_center_expr("(b^r+c^r+2*a^r)/a")
        CE.parse_center_expr("3/4*a + 1/4*b + 1/4*c")

    def test_whitespace_insignificant(self):
        t1 = CE.parse_text("b+c-a")
        t2 = CE.parse_text("  b +  c-a ")
        assert t1 == t2

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            CE.parse_center_expr("a +* b")
        assert exc.value.position == 3

    def test_unknown_symbol(self):
        with pytest.raises(ExprSyntaxError):
            CE.parse_center_expr("a + d")

    def test_exponent_forms(self):
        env = {"a": Q(3), "b": Q(4), "c": Q(5), "r": Q(2)}
        assert CE.eval_tree(CE.parse_text("a^2"), env) == 9
        assert CE.eval_tree(CE.parse_text("a^-2"), env) == Q(1, 9)
        assert CE.eval_tree(CE.parse_text("a^(-2)"), env) == Q(1, 9)
        assert CE.eval_tree(CE.parse_text("a^r"), env) == 9

    def test_bad_exponent(self):
        with pytest.raises(ExprSyntaxError):
            CE.parse_text("a^b")

    def test_exponents_are_bounded(self):
        bound = CE.MAX_EXPONENT
        for text in (f"a^{bound}", f"a^-{bound}", f"a^(-{bound})"):
            CE.parse_text(text)
        for text in (f"a^{bound + 1}", f"a^(-{bound + 1})", "a^-1000000000", "a^5000"):
            with pytest.raises(ExprSyntaxError, match="out of range"):
                CE.parse_text(text)

    def test_round_trip_through_text(self):
        for text in ("b+c-a", "a^r*(b^2+c^2-a^2)", "1/(a*(b+c-2*a))"):
            tree = CE.parse_text(text)
            assert CE.parse_text(CE.to_text(tree)) == tree


class TestValidation:
    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            CE.parse_center_expr("b + a")

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            CE.parse_center_expr("a^2 + b + c")

    def test_zero_function_rejected(self):
        with pytest.raises(CenterExprError):
            CE.parse_center_expr("(b-c) - (b-c)")

    def test_k_counts_as_degree_two(self):
        CE.parse_center_expr("16*K^2/a")       # degree 3, fine
        with pytest.raises(NotHomogeneous):
            CE.parse_center_expr("K + a")      # 2 vs 1

    def test_singular_points_are_resampled(self):
        # denominators vanish at some sample points; validation retries
        CE.parse_center_expr("1/(a*(b+c-2*a))")
        CE.parse_center_expr("a/((b-a)*(c-a))")


class TestKRing:
    def test_multiplication(self):
        kv = CE.KValue(Q(1), Q(2), Q(3))      # 1 + 2K with K^2 = 3
        sq = kv * kv
        assert (sq.u, sq.v) == (13, 4)

    def test_division_clears_k_from_denominator(self):
        kv = CE.KValue(Q(1), Q(2), Q(3))
        inv = Q(1) / kv                        # (1-2K)/(1-12)
        assert (inv.u, inv.v) == (Q(-1, 11), Q(2, 11))
        one = inv * kv
        assert (one.u, one.v) == (1, 0)

    def test_singular_norm(self):
        # 1/(s + tK) with s^2 = t^2 K^2
        kv = CE.KValue(Q(2), Q(1), Q(4))       # norm 4 - 4 = 0
        with pytest.raises(EvaluationSingular):
            Q(1) / kv

    def test_integer_powers(self):
        kv = CE.KValue(Q(0), Q(1), Q(5))       # K itself
        assert ((kv ** 4).u, (kv ** 4).v) == (25, 0)
        assert ((kv ** 3).u, (kv ** 3).v) == (0, 5)


class TestParameterPowers:
    def test_rational_exponent_interval(self):
        val = CE.eval_tree(CE.parse_text("a^r"), {"a": Q(2), "r": Q(1, 2)},
                           exact=False, bits=80)
        assert (val * val).contains(Q(2))

    def test_rational_exponent_exact_when_possible(self):
        assert CE.eval_tree(CE.parse_text("a^r"), {"a": Q(4), "r": Q(1, 2)}) == 2
        assert CE.eval_tree(CE.parse_text("a^r"), {"a": Q(8), "r": Q(-2, 3)}) == Q(1, 4)

    def test_exact_mode_rejects_irrational(self):
        with pytest.raises(IrrationalInExactMode):
            CE.eval_tree(CE.parse_text("a^r"), {"a": Q(2), "r": Q(1, 2)}, exact=True)
