"""Non-finite inputs at every public float argument, finite inputs whose
derived values leave the double range, and the edges of the double range.

Each case feeds NaN, +inf or -inf to one argument.  It either returns the
limit the documentation gives (upper IMGF at zeta = inf is 0, lower IMGF at
zeta = inf is M(s), M(-inf) = 0, pdf(inf) = 0, cdf(inf) = 1, m = inf of a
shadowed law is its unshadowed limit) or raises DomainError or
AccuracyError: no other exception type, and never a NaN.  Values past the
double range raise AccuracyError."""

import json
import math

import mpmath
import numpy as np
import pytest

from imgflib import specfun
from imgflib import (AccuracyError, AdaptiveModScheme, CapacityScenario, DomainError,
                     FadingModel, Kind, McConfig, SecrecyScenario, aber_adaptive, cdf,
                     cdf_grid, db_to_linear, eps_outage_capacity, imgf_deriv_s, imgf_generic,
                     imgf_lower, imgf_lower_numeric, imgf_upper, invert, laplace_image,
                     linear_to_db, marcum_p, marcum_q, mc_aber, mc_opsc, mgf, mixture_cdf,
                     mixture_from_model, mixture_params, model_from_json, opsc,
                     outage_interference, pdf, quad_imgf, smallest_pole)
from imgflib.apps import _check_threshold, _outage_core
from imgflib.cli import EXIT_CONFIG, main
from imgflib.fading import _KINDS

NAN, INF = math.nan, math.inf
NON_FINITE = {"nan": NAN, "+inf": INF, "-inf": -INF}

# one model per closed-form branch: shadowed series, unshadowed, gamma law
MODELS = {
    "kappa-mu-shadowed": FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 5.0),
    "kappa-mu": FadingModel.kappa_mu(2.0, 1.7, 3.0),
    "nakagami": FadingModel.nakagami(2.5, 4.0),
}
RAY = FadingModel.rayleigh(2.0)
NAK2 = FadingModel.nakagami(2, 3.0)
MC = McConfig(n_samples=100, seed=1)


def _model_cases(name, model):
    """(id, f(x), {x: limit}) for the IMGF, MGF and distribution entry points."""
    s = -0.5
    return [
        (f"imgf_lower.s[{name}]", lambda x: imgf_lower(model, x, 1.0), {}),
        # the empty tail is 0 at every s, but not at a NaN s
        (f"imgf_lower.s.empty[{name}]", lambda x: imgf_lower(model, x, 0.0),
         {INF: 0.0, -INF: 0.0}),
        (f"imgf_lower.s.whole[{name}]", lambda x: imgf_lower(model, x, INF), {-INF: 0.0}),
        (f"imgf_lower.zeta[{name}]", lambda x: imgf_lower(model, s, x),
         {INF: mgf(model, s)}),
        (f"imgf_upper.s[{name}]", lambda x: imgf_upper(model, x, 1.0), {}),
        (f"imgf_upper.s.empty[{name}]", lambda x: imgf_upper(model, x, INF),
         {INF: 0.0, -INF: 0.0}),
        (f"imgf_upper.s.whole[{name}]", lambda x: imgf_upper(model, x, 0.0), {-INF: 0.0}),
        (f"imgf_upper.zeta[{name}]", lambda x: imgf_upper(model, s, x), {INF: 0.0}),
        (f"imgf_deriv_s.s.lower[{name}]", lambda x: imgf_deriv_s(model, x, 1.0, 2, "lower"),
         {}),
        (f"imgf_deriv_s.s.upper[{name}]", lambda x: imgf_deriv_s(model, x, 1.0, 2, "upper"),
         {}),
        (f"imgf_deriv_s.zeta.lower[{name}]", lambda x: imgf_deriv_s(model, s, x, 2, "lower"),
         {INF: imgf_deriv_s(model, s, 0.0, 2, "upper")}),
        (f"imgf_deriv_s.zeta.upper[{name}]", lambda x: imgf_deriv_s(model, s, x, 2, "upper"),
         {INF: 0.0}),
        (f"mgf[{name}]", lambda x: mgf(model, x), {-INF: 0.0}),
        (f"pdf[{name}]", lambda x: pdf(model, x), {INF: 0.0}),
        (f"cdf[{name}]", lambda x: cdf(model, x), {INF: 1.0}),
        (f"cdf_grid[{name}]", lambda x: float(cdf_grid(model, [1.0, x])[1]), {INF: 1.0}),
        (f"imgf_generic.s[{name}]", lambda x: imgf_generic(laplace_image(model), x, 1.0),
         {}),
        (f"imgf_generic.zeta[{name}]", lambda x: imgf_generic(laplace_image(model), s, x),
         {}),
        (f"quad_imgf.s[{name}]", lambda x: quad_imgf(model, x, 1.0), {}),
        (f"quad_imgf.zeta.lower[{name}]", lambda x: quad_imgf(model, s, x, "lower"),
         {INF: mgf(model, s)}),
        (f"quad_imgf.zeta.upper[{name}]", lambda x: quad_imgf(model, s, x, "upper"),
         {INF: 0.0}),
    ]


def _field_cases():
    """Every model field of every kind, the unshadowed m = inf included."""
    defaults = {"kappa": 1.5, "mu": 2.0, "m": 3.0, "eta": 0.5, "K": 2.0, "q": 0.5}
    unshadowed = {Kind.KAPPA_MU_SHADOWED: FadingModel.kappa_mu(1.5, 2.0, 2.0),
                  Kind.RICIAN_SHADOWED: FadingModel.rician(2.0, 2.0)}
    cases = []
    for kind in Kind:
        fields = {name: defaults[name] for name in _KINDS[kind][0]}
        for name in (*fields, "mean_snr"):
            def build(x, kind=kind, fields=fields, name=name):
                return FadingModel(kind, **{"mean_snr": 2.0, **fields, name: x})
            limits = {}
            if name == "m" and kind in unshadowed:
                limits[INF] = mgf(unshadowed[kind], -0.5)
            cases.append((f"FadingModel.{name}[{kind.value}]",
                          lambda x, build=build: mgf(build(x), -0.5), limits))
    cases.append(("model_from_json.mean_snr_db",
                  lambda x: model_from_json({"kind": "rayleigh", "mean_snr_db": x}), {}))
    return cases


def _scenario_cases():
    sc = SecrecyScenario(bob=RAY, eve=NAK2)
    mix = mixture_from_model(NAK2)
    return [
        ("SecrecyScenario.rate_rs", lambda x: SecrecyScenario(RAY, NAK2, x), {}),
        ("mc_opsc.rate_rs", lambda x: mc_opsc(SecrecyScenario(RAY, NAK2, x), MC), {}),
        ("eps_outage_capacity.epsilon", lambda x: eps_outage_capacity(sc, x), {}),
        ("outage_interference.gamma_th", lambda x: outage_interference(RAY, NAK2, x), {}),
        ("check_threshold", _check_threshold, {}),
        ("outage_core.alpha", lambda x: _outage_core(RAY, mix, x, 1.0), {}),
        ("CapacityScenario.cutoff_snr", lambda x: CapacityScenario(RAY, x), {}),
        ("AdaptiveModScheme.first", lambda x: AdaptiveModScheme((x, 5.0), (2, 4)), {}),
        ("AdaptiveModScheme.last", lambda x: AdaptiveModScheme((0.0, x), (2, 4)), {}),
        ("mc_aber.threshold",
         lambda x: mc_aber(RAY, AdaptiveModScheme((1.0, x), (2, 4)), MC), {}),
    ]


def _kernel_cases():
    img = laplace_image(RAY)
    mix = mixture_from_model(NAK2)
    return [
        ("marcum_q.nu", lambda x: marcum_q(x, 1.0, 1.0), {}),
        ("marcum_q.a", lambda x: marcum_q(1.5, x, 1.0), {}),
        ("marcum_q.b", lambda x: marcum_q(1.5, 1.0, x), {}),
        ("marcum_p.nu", lambda x: marcum_p(x, 1.0, 1.0), {}),
        ("marcum_p.a", lambda x: marcum_p(1.5, x, 1.0), {}),
        ("marcum_p.b", lambda x: marcum_p(1.5, 1.0, x), {}),
        ("imgf_lower_numeric.s", lambda x: imgf_lower_numeric(img, x, 1.0), {}),
        ("imgf_lower_numeric.zeta", lambda x: imgf_lower_numeric(img, -0.5, x), {}),
        ("invert.t", lambda x: invert(img, x), {}),
        ("mixture_cdf", lambda x: mixture_cdf(mix, x), {INF: 1.0}),
        ("mixture_params.kappa", lambda x: mixture_params(x, 2, 3, 1.0), {}),
        ("mixture_params.mu", lambda x: mixture_params(1.5, x, 3, 1.0), {}),
        ("mixture_params.m", lambda x: mixture_params(1.5, 2, x, 1.0), {}),
        ("mixture_params.mean_snr", lambda x: mixture_params(1.5, 2, 3, x), {}),
    ]


CASES = [c for name, model in MODELS.items() for c in _model_cases(name, model)]
CASES += _field_cases() + _scenario_cases() + _kernel_cases()


@pytest.mark.parametrize("x_id", list(NON_FINITE))
@pytest.mark.parametrize("case_id, f, limits", CASES, ids=[c[0] for c in CASES])
def test_non_finite_argument(case_id, f, limits, x_id):
    x = NON_FINITE[x_id]
    if x in limits:
        value = f(x)
        assert value == pytest.approx(limits[x], rel=1e-10, abs=0.0)
    else:
        with pytest.raises((DomainError, AccuracyError)):
            f(x)


def _finite_extreme_cases():
    """(id, f) for finite arguments whose derived doubles leave the range:
    each must raise DomainError."""
    cases = []
    for snr in (1e-310, 1e-320, 5e-324):  # a = mu (1 + kappa) / mean is inf
        model = FadingModel.rayleigh(snr)
        cases += [(f"imgf_lower[rayleigh({snr})]", lambda m=model: imgf_lower(m, -0.5, 1.0)),
                  (f"cdf[rayleigh({snr})]", lambda m=model: cdf(m, 1.0)),
                  (f"mgf[rayleigh({snr})]", lambda m=model: mgf(m, -0.5)),
                  # the mixture and the scenario check the rates as the closed forms do
                  (f"mixture_from_model[rayleigh({snr})]",
                   lambda m=model: mixture_from_model(m)),
                  (f"SecrecyScenario.eve[rayleigh({snr})]",
                   lambda m=model: SecrecyScenario(RAY, m, 0.1)),
                  (f"SecrecyScenario.bob[rayleigh({snr})]",
                   lambda m=model: SecrecyScenario(m, RAY, 0.1))]
    cases += [
        ("imgf_lower[nakagami(1e300, 1e-10)]",
         lambda: imgf_lower(FadingModel.nakagami(1e300, 1e-10), -0.5, 1.0)),
        ("cdf[kappa_mu_shadowed(1e308, 2, 3, 1)]",  # a = inf, b = nan
         lambda: cdf(FadingModel.kappa_mu_shadowed(1e308, 2, 3, 1), 1.0)),
        ("mgf[hoyt(1e-200)]",  # q^2 underflows to eta = 0
         lambda: mgf(FadingModel.hoyt(1e-200, 1.0), -0.5)),
        ("SecrecyScenario.rate_rs[1024]", lambda: SecrecyScenario(RAY, NAK2, 1024.0)),
        ("SecrecyScenario.rate_rs[2000]", lambda: SecrecyScenario(RAY, NAK2, 2000.0)),
        ("AdaptiveModScheme.bits[1024]", lambda: AdaptiveModScheme((0.0,), (1024,))),
        ("AdaptiveModScheme.bits[2000]", lambda: AdaptiveModScheme((0.0, 1.0), (2, 2000))),
        ("linear_to_db[0]", lambda: linear_to_db(0.0)),
        ("linear_to_db[-1]", lambda: linear_to_db(-1.0)),
        ("linear_to_db[nan]", lambda: linear_to_db(NAN)),
        ("db_to_linear[1e5]", lambda: db_to_linear(1e5)),
        ("model_from_json.mean_snr_db[1e5]",
         lambda: model_from_json({"kind": "rayleigh", "mean_snr_db": 1e5})),
        # a^2/2 and b^2/2 both overflow: no limit to take
        ("marcum_q[1e155, 1e155]", lambda: marcum_q(1.0, 1e155, 1e155)),
        ("marcum_p[1e155, 1e155]", lambda: marcum_p(1.0, 1e155, 1e155)),
    ]
    return cases


FINITE_EXTREMES = _finite_extreme_cases()


@pytest.mark.parametrize("case_id, f", FINITE_EXTREMES, ids=[c[0] for c in FINITE_EXTREMES])
def test_finite_extreme_is_domain_error(case_id, f):
    with pytest.raises(DomainError):
        f()


# a law whose kernel weights cannot be formed: negative binomial weights whose
# log(1 - theta) = log(m / (lam + m)) underflows (a bare ValueError before);
# upper tails at zeta = 1e34, whose order past which every Q is 1 divided by
# log(a/x) = 0 (a bare ZeroDivisionError before) and whose first window is
# past the term cap
OUT_OF_REACH = {
    "cdf[kappa_mu_shadowed(1e300, 1, 1e-300, 1)]":
        (lambda: cdf(FadingModel.kappa_mu_shadowed(1e300, 1, 1e-300, 1), 1.0), "shape m"),
    "imgf_upper[rician(3, 1)]@1e34":
        (lambda: imgf_upper(FadingModel.rician(3.0, 1.0), 0.0, 1e34), "terms"),
    "imgf_deriv_s[kappa_mu_shadowed(1.5, 2, 2.5, 1)]@1e34":
        (lambda: imgf_deriv_s(FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.5, 1.0), -1.0, 1e34, 1),
         "terms"),
}


@pytest.mark.parametrize("f, match", OUT_OF_REACH.values(), ids=list(OUT_OF_REACH))
def test_finite_extreme_out_of_reach_is_accuracy_error(f, match):
    with pytest.raises(AccuracyError, match=match):
        f()


@pytest.mark.parametrize("f", [
    lambda: marcum_q(1.0, 1e6, 1e6),
    lambda: marcum_p(1.0, 1e150, 1.0),
    lambda: imgf_upper(FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.5, 1.0), 0.0, 1e10),
    lambda: imgf_upper(FadingModel.rician(3.0, 1.0), 0.0, 1e34),
], ids=["marcum_q(1, 1e6, 1e6)", "marcum_p(1, 1e150, 1)", "imgf_upper[kms(1.5, 2, 2.5)]@1e10",
        "imgf_upper[rician(3)]@1e34"])
def test_first_window_past_the_term_cap(f, monkeypatch):
    # the gamma-mixture kernel's first window alone is longer than its term
    # cap, and its bounds do not pass: it is walked in blocks no longer than
    # the cap (one of 8.5 million terms and 471 MB before), and AccuracyError;
    # a window that reaches order 2^53 raises before any walk (a bare
    # ValueError or ZeroDivisionError before)
    arange = np.arange

    def capped(*args, **kwargs):
        start, stop = (0, args[0]) if len(args) == 1 else args[:2]
        assert stop - start <= specfun._MAX_TERMS, f"a block of {stop - start} terms"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", capped)
    with pytest.raises(AccuracyError, match="terms"):
        f()


@pytest.mark.parametrize("lam, x, upper", [(2e8, 8.45e7, True), (5e11, 5e5, False),
                                           (5e5, 5e11, True)])
def test_first_window_past_the_term_cap_keeps_its_sum(lam, x, upper, monkeypatch):
    # a narrow summand far out: its first window, longer than the term cap,
    # passes its bounds at once.  Walked in blocks no longer than the cap, it
    # sums as in one block (the first one of them raised AccuracyError)
    split = specfun._log_mixture_sum(lam, math.inf, 1.0, 0, 0.0, x, upper)
    monkeypatch.setattr(specfun, "_MAX_TERMS", 10 ** 9)
    whole = specfun._log_mixture_sum(lam, math.inf, 1.0, 0, 0.0, x, upper)
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)


def _mp_shadowed_cdf(kappa: float, mu: float, m: float, mean: float, x: float) -> float:
    """The kappa-mu shadowed CDF at 30 digits as its gamma mixture,
    sum_n w_n P(mu+n, a x), a = mu (1+kappa) / mean, w_n negative binomial
    with shape m and mean kappa mu; 200 terms (P(mu+n, a x) falls like
    (a x)^n / n!)."""
    with mpmath.workdps(30):
        kappa, mu, m, mean, x = map(mpmath.mpf, (kappa, mu, m, mean, x))
        lam, a = kappa * mu, mu * (1 + kappa) / mean
        theta, w, total = lam / (lam + m), (m / (lam + m)) ** m, mpmath.mpf(0)
        for n in range(200):
            total += w * mpmath.gammainc(mu + n, 0, a * x, regularized=True)
            w *= theta * (m + n) / (n + 1)
        return float(total)


@pytest.mark.parametrize("f, expected", [
    (lambda: imgf_lower(FadingModel.rayleigh(1e-308), -0.5, 1.0), 1.0),  # a = 1e308
    (lambda: cdf(FadingModel.rayleigh(1e-308), 1e-308), 1.0 - math.exp(-1.0)),
    (lambda: opsc(SecrecyScenario(RAY, NAK2, 1023.0)), 1.0),
    (lambda: aber_adaptive(RAY, AdaptiveModScheme((0.0,), (1023,))), 0.2),
    (lambda: db_to_linear(3000.0), 1e300),
    (lambda: linear_to_db(5e-324), -3233.0621534),
    # shadowing shape m = 1e-12: AccuracyError before, the kernel's first
    # weight ratio lost eps/m (2.2e-5 off, when it still summed)
    (lambda: cdf(FadingModel.kappa_mu_shadowed(1.0, 1.0, 1e-12, 1.0), 2.0),
     _mp_shadowed_cdf(1.0, 1.0, 1e-12, 1.0, 2.0)),
    # one of a^2/2 and b^2/2 overflows: its limit (a = 1e155 ran past 300 s
    # before, b = 1e155 raised a bare ValueError)
    (lambda: marcum_q(1.0, 1e155, 1.0), 1.0),
    (lambda: marcum_p(1.0, 1e155, 1.0), 0.0),
    (lambda: marcum_q(1.0, 1.0, 1e155), 0.0),
    (lambda: marcum_p(1.0, 1.0, 1e155), 1.0),
    # a first window longer than the term cap whose bounds pass at once
    (lambda: marcum_q(1.0, 2e4, 1.3e4), 1.0),
    (lambda: marcum_p(1.0, 3e5, 1e3), 0.0),
    # the order past which every Q is 1 (_q_one_order) must lie above
    # x = 4e18, where a/x - 1 is about 1e-8; below it the window is centred
    # short of the summand (near n = 3.5e9) and reaches the term cap
    (lambda: imgf_upper(FadingModel.rician(3.0, 1.0), 0.0, 1e18), 0.0),
], ids=["imgf_lower[rayleigh(1e-308)]", "cdf[rayleigh(1e-308)]", "opsc.rate_rs[1023]",
        "aber_adaptive.bits[1023]", "db_to_linear[3000]", "linear_to_db[5e-324]",
        "cdf[kappa_mu_shadowed(1, 1, 1e-12, 1)]", "marcum_q[1e155, 1]", "marcum_p[1e155, 1]",
        "marcum_q[1, 1e155]", "marcum_p[1, 1e155]", "marcum_q[2e4, 1.3e4]",
        "marcum_p[3e5, 1e3]", "imgf_upper[rician(3, 1)]@1e18"])
def test_finite_extreme_keeps_its_value(f, expected):
    assert f() == pytest.approx(expected, rel=1e-8)


class TestPastTheDoubleRange:
    # Nakagami m = 200 at mean 1: the MGF pole is 200, and the values at
    # 0.999 of it are past the double range
    NAK200 = FadingModel.nakagami(200, 1.0)

    @pytest.mark.parametrize("f", [
        lambda m, s: imgf_lower(m, s, 1e6),
        lambda m, s: imgf_upper(m, s, 1.0),
        lambda m, s: imgf_deriv_s(m, s, 1e6, 2, "lower"),
        lambda m, s: mgf(m, s),
    ], ids=["imgf_lower", "imgf_upper", "imgf_deriv_s", "mgf"])
    def test_overflow_is_accuracy_error(self, f):
        s = 0.999 * smallest_pole(self.NAK200)
        with pytest.raises(AccuracyError, match="overflows"):
            f(self.NAK200, s)

    @pytest.mark.parametrize("m, expected", [(1200, 1.7341951), (2000, 1.7348514)])
    def test_eps_capacity_with_the_mgf_past_the_double_range(self, m, expected):
        # the Chernoff bracket's M_b at half the pole is past the double range
        # for m > 1023; the returned rate brackets epsilon
        sc = SecrecyScenario(bob=FadingModel.nakagami(m, 10.0), eve=FadingModel.rayleigh(1.0))
        rate = eps_outage_capacity(sc, 0.1)
        assert rate == pytest.approx(expected, abs=1e-7)
        assert opsc(SecrecyScenario(sc.bob, sc.eve, rate)) <= 0.1
        assert opsc(SecrecyScenario(sc.bob, sc.eve, rate * (1.0 + 1e-8))) > 0.1


RAY_JSON = json.dumps({"kind": "rayleigh", "mean_snr_db": 5})
SUBNORMAL_JSON = json.dumps({"kind": "rayleigh", "mean_snr": 1e-320})


@pytest.mark.parametrize("argv", [
    ["imgf", "--model", "rayleigh", "--mean-snr", "inf", "--s", "-0.5", "--zeta", "1"],
    ["imgf", "--model", "kappa-mu", "--kappa", "inf", "--mu", "1", "--mean-snr", "1",
     "--s", "-0.5", "--zeta", "1"],
    ["imgf", "--model", "rayleigh", "--mean-snr", "1", "--s", "-0.5", "--zeta", "nan"],
    ["opsc", "--bob", RAY_JSON, "--eve", RAY_JSON, "--rate", "nan"],
    ["opsc", "--bob", '{"kind": "rayleigh", "mean_snr_db": NaN}', "--eve", RAY_JSON,
     "--rate", "0.1"],
    ["opsc", "--bob", '{"kind": "rician", "K": Infinity, "mean_snr_db": 3}', "--eve",
     RAY_JSON, "--rate", "0.1"],
], ids=["mean-snr-inf", "kappa-inf", "zeta-nan", "rate-nan", "json-NaN", "json-Infinity"])
def test_cli_non_finite_is_configuration_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["imgf", "--model", "rayleigh", "--mean-snr", "1e-320", "--s", "-0.5", "--zeta", "1"],
    ["imgf", "--model", "rayleigh", "--mean-snr-db", "1e5", "--s", "-0.5", "--zeta", "1"],
    ["opsc", "--bob", RAY_JSON, "--eve", RAY_JSON, "--rate", "2000"],
    ["aber", "--channel", RAY_JSON, "--thresholds", "0", "--bits", "2000"],
    ["opsc", "--bob", RAY_JSON, "--eve", SUBNORMAL_JSON, "--rate", "0.1"],
], ids=["mean-snr-subnormal", "mean-snr-db-1e5", "rate-2000", "bits-2000",
        "eve-mean-snr-subnormal"])
def test_cli_finite_extreme_is_configuration_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("link", ["bob", "eve"])
def test_sweep_with_a_subnormal_mean_snr_is_configuration_error(link, tmp_path, capsys):
    # exit 3 ("numerical failure") before: the sweep's parse built the models
    # without their rates
    fixed = {"bob": json.loads(RAY_JSON), "eve": json.loads(RAY_JSON), "rate_rs": 0.1,
             link: json.loads(SUBNORMAL_JSON)}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "metric": "opsc", "fixed": fixed, "output": {"path": str(tmp_path / "x.csv")},
        "axis": {"field": "rate_rs", "start": 0.1, "stop": 0.2, "step": 0.1}}))
    assert main(["sweep", "--spec", str(spec)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
