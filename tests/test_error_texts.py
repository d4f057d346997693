"""The exact error of each rejected model, model JSON and scenario.

Each case is a call that fails more than one check where it can, so the
expected text also pins which check comes first: a kind before the mean
SNR, the mean SNR before the fields, a missing field before a field foreign
to the kind, a foreign field before a range check, the range checks in the
kind's field order; in model JSON the kind, the mean keys and the fields'
numbers before unknown keys, and unknown keys before the model's own checks.
"""

import math

import pytest

from imgflib.apps import SecrecyScenario
from imgflib.errors import DomainError
from imgflib.fading import (FadingModel, Kind, _canonical_params, canonicalize,
                            model_from_json, mrc_combine)

RAY = FadingModel.rayleigh(1.0)
TINY = 1e-310  # a subnormal mean SNR: the rate mu (1 + kappa) / mean is inf

M_WORDS = "m must be positive and finite (inf only as the unshadowed limit of a shadowed law)"
RATES = ("rayleigh model with canonical kappa=0.0, mu=1.0, m=inf, mean_snr=1e-310 has rates "
         "a=inf, b=inf; both must be positive and finite")
RATE_WORDS = "secrecy rate must be nonnegative and below 1024 (2^R_S a finite double)"

MODEL_CASES = {
    "missing": (lambda: FadingModel(Kind.KAPPA_MU_SHADOWED, 1.0, kappa=1.0, mu=1.0),
                "kappa-mu-shadowed model requires parameter 'm'"),
    "missing-first": (lambda: FadingModel(Kind.KAPPA_MU_SHADOWED, 1.0, mu=1.0),
                      "kappa-mu-shadowed model requires parameter 'kappa'"),
    "missing-before-foreign": (lambda: FadingModel(Kind.RICIAN, 1.0, q=0.5),
                               "rician model requires parameter 'K'"),
    "missing-before-range": (lambda: FadingModel(Kind.KAPPA_MU_SHADOWED, 1.0, kappa=-1.0,
                                                 mu=1.0),
                             "kappa-mu-shadowed model requires parameter 'm'"),
    "foreign": (lambda: FadingModel(Kind.RAYLEIGH, 1.0, K=2.0),
                "parameter 'K' is not meaningful for rayleigh"),
    "foreign-first": (lambda: FadingModel(Kind.RAYLEIGH, 1.0, q=0.5, kappa=1.0),
                      "parameter 'kappa' is not meaningful for rayleigh"),
    "foreign-before-range": (lambda: FadingModel(Kind.RICIAN, 1.0, K=-1.0, q=0.5),
                             "parameter 'q' is not meaningful for rician"),
    "kind-as-text": (lambda: FadingModel("rayleigh", 1.0, K=1.0),
                     "parameter 'K' is not meaningful for rayleigh"),
    "kappa": (lambda: FadingModel.kappa_mu(-1.0, 1.0, 1.0),
              "kappa must be nonnegative and finite, got -1.0"),
    "kappa-inf": (lambda: FadingModel.kappa_mu(math.inf, 1.0, 1.0),
                  "kappa must be nonnegative and finite, got inf"),
    "mu": (lambda: FadingModel.kappa_mu(1.0, 0.0, 1.0), "mu must be positive and finite, got 0.0"),
    "mu-nan": (lambda: FadingModel.eta_mu(0.5, math.nan, 1.0),
               "mu must be positive and finite, got nan"),
    "m": (lambda: FadingModel.kappa_mu_shadowed(1.0, 1.0, 0.0, 1.0), f"{M_WORDS}, got 0.0"),
    "m-inf-nakagami": (lambda: FadingModel.nakagami(math.inf, 1.0), f"{M_WORDS}, got inf"),
    "m-rician-shadowed": (lambda: FadingModel.rician_shadowed(1.0, -2.0, 1.0),
                          f"{M_WORDS}, got -2.0"),
    "eta": (lambda: FadingModel.eta_mu(0.0, 1.0, 1.0),
            "eta must be positive and finite (format 1), got 0.0"),
    "K": (lambda: FadingModel.rician(-1.0, 1.0), "K must be nonnegative and finite, got -1.0"),
    "q-zero": (lambda: FadingModel.hoyt(0.0, 1.0), "Hoyt q must lie in (0, 1], got 0.0"),
    "q-above-1": (lambda: FadingModel.hoyt(1.5, 1.0), "Hoyt q must lie in (0, 1], got 1.5"),
    "range-in-field-order": (lambda: FadingModel.kappa_mu_shadowed(-1.0, 0.0, 0.0, 1.0),
                             "kappa must be nonnegative and finite, got -1.0"),
    "mean": (lambda: FadingModel.rayleigh(0.0), "mean_snr must be positive and finite, got 0.0"),
    "mean-nan": (lambda: FadingModel.rayleigh(math.nan),
                 "mean_snr must be positive and finite, got nan"),
    "mean-before-fields": (lambda: FadingModel(Kind.RICIAN, math.inf, q=0.5),
                           "mean_snr must be positive and finite, got inf"),
}

JSON_CASES = {
    "no-kind": ({"mean_snr_db": 1.0, "foo": 1}, "model JSON requires a 'kind' field"),
    "unknown-kind": ({"kind": "warp", "mean_snr_db": 1.0, "mean_snr": 1.0},
                     "unknown model kind 'warp'"),
    "both-means": ({"kind": "rayleigh", "mean_snr_db": "x", "mean_snr": 1.0},
                   "give mean_snr_db or mean_snr, not both"),
    "no-mean": ({"kind": "rayleigh", "K": "x"}, "model JSON requires mean_snr_db (or mean_snr)"),
    "non-numeric-mean": ({"kind": "rayleigh", "mean_snr": "x", "K": "y"},
                         "field 'mean_snr' must be a number, got 'x'"),
    "mean-past-double-range": ({"kind": "rayleigh", "mean_snr_db": 1e5},
                               "100000.0 dB is past the double range"),
    "non-numeric-field": ({"kind": "rician", "mean_snr_db": 1.0, "q": [1], "K": "x", "foo": 1},
                          "field 'K' must be a number, got 'x'"),
    "unknown-fields": ({"kind": "rayleigh", "mean_snr_db": 1.0, "foo": 1, "bar": [1], "K": 1.0},
                       "unknown model fields: ['bar', 'foo']"),
    "model-check": ({"kind": "rician", "mean_snr": -1.0, "K": None},
                    "mean_snr must be positive and finite, got -1.0"),
    "foreign-field": ({"kind": "RAYLEIGH", "mean_snr": 2.0, "K": 1},
                      "parameter 'K' is not meaningful for rayleigh"),
}

CANONICAL_CASES = {
    # q^2 underflows to 0
    "hoyt-q": (FadingModel.hoyt(1e-200, 1.0),
               "eta must be positive and finite (format 1), got 0.0"),
    # q^2 is subnormal, and kappa = (1 - q^2) / (2 q^2) overflows
    "hoyt-kappa": (FadingModel.hoyt(1e-160, 1.0), "kappa must be nonnegative and finite, got inf"),
    "eta-mu-kappa": (FadingModel.eta_mu(1e-320, 1.0, 1.0),
                     "kappa must be nonnegative and finite, got inf"),
    "eta-mu-mu": (FadingModel.eta_mu(0.5, 1e308, 1.0), "mu must be positive and finite, got inf"),
}

SCENARIO_CASES = {
    "mrc-branches": (lambda: mrc_combine(RAY, 0), "need at least one branch"),
    "mrc-mean": (lambda: mrc_combine(FadingModel.rayleigh(1e308), 2),
                 "mean_snr must be positive and finite, got inf"),
    "mrc-mu": (lambda: mrc_combine(FadingModel.nakagami(1e308, 1.0), 2),
               "mu must be positive and finite, got inf"),
    "rate": (lambda: SecrecyScenario(bob=FadingModel.rayleigh(TINY),
                                     eve=FadingModel.nakagami(2.5, 1.0), rate_rs=-1.0,
                                     n_eve_antennas=0), f"{RATE_WORDS}, got -1.0"),
    "rate-1024": (lambda: SecrecyScenario(bob=RAY, eve=RAY, rate_rs=1024.0),
                  f"{RATE_WORDS}, got 1024.0"),
    "antennas": (lambda: SecrecyScenario(bob=FadingModel.rayleigh(TINY),
                                         eve=FadingModel.nakagami(2.5, 1.0), n_eve_antennas=0),
                 "need at least one eavesdropper antenna"),
    "bob-before-eve": (lambda: SecrecyScenario(bob=FadingModel.rayleigh(TINY),
                                               eve=FadingModel.nakagami(2.5, 1.0)), RATES),
    "eve-rates": (lambda: SecrecyScenario(bob=RAY, eve=FadingModel.rayleigh(TINY)), RATES),
    "eve-gamma": (lambda: SecrecyScenario(bob=RAY, eve=FadingModel.nakagami(2.5, 1.0)),
                  "gamma-law mixture requires integer mu, got mu=2.5"),
    "eve-shadowed": (lambda: SecrecyScenario(
        bob=RAY, eve=FadingModel.kappa_mu_shadowed(1.0, 1.5, 2.0, 1.0)),
        "mixture form requires integer mu and m, got mu=1.5, m=2.0"),
    "eve-unshadowed": (lambda: SecrecyScenario(bob=RAY, eve=FadingModel.kappa_mu(1.0, 2.0, 1.0)),
                       "mixture form requires integer mu and m, got mu=2.0, m=inf"),
    "eve-mrc": (lambda: SecrecyScenario(bob=RAY, eve=FadingModel.rayleigh(1e308),
                                        n_eve_antennas=2),
                "mean_snr must be positive and finite, got inf"),
}


def raises_exactly(call, text: str, error=DomainError) -> None:
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


@pytest.mark.parametrize("case", MODEL_CASES)
def test_model(case):
    raises_exactly(*MODEL_CASES[case])


def test_unknown_kind_is_kinds_own_error():
    # FadingModel takes a kind or a kind's value; anything else is Kind's ValueError
    raises_exactly(lambda: FadingModel("warp", 0.0), "'warp' is not a valid Kind", ValueError)
    raises_exactly(lambda: FadingModel(["rayleigh"], 1.0), "['rayleigh'] is not a valid Kind",
                   ValueError)


@pytest.mark.parametrize("case", JSON_CASES)
def test_model_from_json(case):
    obj, text = JSON_CASES[case]
    raises_exactly(lambda: model_from_json(obj), text)


@pytest.mark.parametrize("case", CANONICAL_CASES)
def test_canonical_form(case):
    model, text = CANONICAL_CASES[case]
    raises_exactly(lambda: canonicalize(model), text)
    _canonical_params.cache_clear()
    raises_exactly(lambda: _canonical_params(model), text)


def test_canonical_rates():
    raises_exactly(lambda: _canonical_params(FadingModel.rayleigh(TINY)), RATES)


@pytest.mark.parametrize("case", SCENARIO_CASES)
def test_scenario(case):
    raises_exactly(*SCENARIO_CASES[case])
