"""Distribution kernel accuracy against frozen high-precision references.

Reference values were computed independently with mpmath at 40 decimal
digits: the normal CDF via erf, the t CDF via the regularized incomplete
beta function I(df/2, 1/2; df/(df + x^2)).
"""

import math

import pytest

from pct_impact.kernels import normal_cdf, normal_quantile, t_cdf, t_quantile

# 25 checkpoints: (x, Phi(x))
NORMAL = [
    (-5.0, 2.8665157187919391e-7),
    (-4.0, 3.1671241833119921e-5),
    (-3.0, 0.0013498980316300945),
    (-2.5, 0.0062096653257761352),
    (-2.0, 0.022750131948179207),
    (-1.959964, 0.024999999096442402),
    (-1.5, 0.066807201268858066),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (-0.25, 0.40129367431707628),
    (0.0, 0.5),
    (0.25, 0.59870632568292372),
    (0.5, 0.6914624612740131),
    (1.0, 0.84134474606854295),
    (1.5, 0.93319279873114193),
    (1.645, 0.95001509446087864),
    (1.96, 0.97500210485177956),
    (2.0, 0.97724986805182079),
    (2.326, 0.98999072465913233),
    (2.5, 0.99379033467422386),
    (3.0, 0.99865010196836991),
    (3.5, 0.99976737092096447),
    (4.0, 0.99996832875816688),
    (4.5, 0.99999660232687527),
    (5.0, 0.99999971334842812),
]

# 25 checkpoints: (x, df, T_df(x))
STUDENT_T = [
    (-4.0, 1, 0.077979130377369325),
    (-2.0, 1, 0.14758361765043327),
    (0.5, 1, 0.64758361765043327),
    (2.0, 2, 0.90824829046386302),
    (-1.5, 2, 0.13619656244550054),
    (1.0, 3, 0.80449889052211468),
    (-2.5, 4, 0.033383272405994073),
    (3.0, 5, 0.98495037605126871),
    (-0.75, 6, 0.24080890715607733),
    (1.25, 8, 0.87668706289230342),
    (-3.5, 10, 0.0028632527149426079),
    (0.25, 12, 0.59659204967706806),
    (2.2, 15, 0.97805221243625177),
    (-1.0, 20, 0.16462828858585453),
    (1.96, 30, 0.97032884355197476),
    (-2.75, 40, 0.0044524012185696032),
    (0.6, 50, 0.72439202503572958),
    (3.2, 60, 0.99890136472808426),
    (-0.3, 80, 0.3824776470389283),
    (1.7, 100, 0.95388033649849037),
    (-2.0, 200, 0.023426593093535489),
    (2.5, 500, 0.99363071224955808),
    (-15.21, 548, 3.8482587531434666e-44),
    (1.6258, 754, 0.94779496695236324),
    (4.0, 1000, 0.99996599504039561),
]


@pytest.mark.parametrize("x,expected", NORMAL)
def test_normal_cdf_reference(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("x,df,expected", STUDENT_T)
def test_t_cdf_reference(x, df, expected):
    assert t_cdf(x, df) == pytest.approx(expected, abs=1e-8)


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == 0.5
    for x in (0.3, 1.1, 2.7):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_196():
    assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-7)


def test_t_cdf_large_t_consistent_with_reported_p():
    # complement at |t| = 15.21 on 548 df is far below the 1e-4 print floor
    assert 1.0 - t_cdf(15.21, 548) < 1e-4


def test_t_quantile_converges_to_normal():
    assert t_quantile(0.975, 1e5) == pytest.approx(1.959964, abs=1e-4)
    assert t_quantile(0.975, 1e7) == pytest.approx(1.959964, abs=1e-5)


def test_t_quantile_inverts_t_cdf():
    for df in (1, 5, 30, 548):
        for q in (0.025, 0.25, 0.5, 0.9, 0.975):
            assert t_cdf(t_quantile(q, df), df) == pytest.approx(q, abs=1e-10)


def test_normal_quantile_inverts_cdf():
    for q in (0.025, 0.1, 0.5, 0.975, 0.999):
        assert normal_cdf(normal_quantile(q)) == pytest.approx(q, abs=1e-12)


def test_t_cdf_matches_normal_at_huge_df():
    for x in (-5.0, -2.0, -0.5, 0.0, 1.0, 3.0, 5.0):
        assert t_cdf(x, 1e6) == pytest.approx(normal_cdf(x), abs=1e-6)


def test_domain_validation():
    with pytest.raises(ValueError):
        t_cdf(1.0, 0)
    with pytest.raises(ValueError):
        t_cdf(1.0, -3)
    with pytest.raises(ValueError):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        t_quantile(1.0, 5)
    with pytest.raises(ValueError):
        t_quantile(0.5, -1)
    with pytest.raises(ValueError):
        normal_quantile(1.5)
    with pytest.raises(ValueError):
        normal_cdf(float("nan"))


def test_kernels_are_pure_across_repeat_calls():
    first = [t_cdf(1.234, 17), normal_cdf(0.87), t_quantile(0.9, 12)]
    again = [t_cdf(1.234, 17), normal_cdf(0.87), t_quantile(0.9, 12)]
    assert first == again


# repr() of each output, so that a change in any last bit shows here, where
# the grid's 1e-13 tolerance would let it pass. The q values cover all
# three AS 241 branches: |q - 1/2| <= 0.425, r <= 5 and r > 5.
PINNED = [
    (normal_quantile, (0.5,), "0.0"),
    (normal_quantile, (0.9,), "1.2815515655446008"),
    (normal_quantile, (0.95,), "1.6448536269514715"),
    (normal_quantile, (0.975,), "1.9599639845400536"),
    (normal_quantile, (0.995,), "2.5758293035489"),
    (normal_quantile, (0.3,), "-0.5244005127080407"),
    (normal_quantile, (0.02,), "-2.0537489106318225"),
    (normal_quantile, (0.999999,), "4.753424308817089"),
    (normal_quantile, (1e-20,), "-9.262340089798405"),
    (normal_quantile, (1e-300,), "-37.0470962993612"),
    (normal_cdf, (1.96,), "0.9750021048517796"),
    (normal_cdf, (-1.96,), "0.024997895148220428"),
    (normal_cdf, (8.0,), "0.9999999999999993"),
    (normal_cdf, (-8.0,), "6.106226635438361e-16"),
    (normal_cdf, (40.0,), "1.0"),
    (normal_cdf, (-40.0,), "0.0"),
    (t_quantile, (0.975, 7), "2.364624251592786"),
    (t_quantile, (0.025, 7), "-2.3646242515927853"),
    (t_quantile, (0.975, 1e21), "1.9599639845400536"),
]


@pytest.mark.parametrize("kernel,args,expected", PINNED)
def test_normal_values_pinned_bit_for_bit(kernel, args, expected):
    assert repr(kernel(*args)) == expected
