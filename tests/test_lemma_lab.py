import numpy as np
import pytest

from marginlab import kernels, lemma_lab
from marginlab import learners as L
from marginlab import orthopoly as op
from marginlab.harness import ExperimentConfig, Trial
from marginlab.sphere import RngStream, sample_band


def test_check_band_gap_linear_zonal():
    d, gamma = 8, 0.03
    f = op.PolyCoeffs(d, np.array([0.0, 1.0]))
    rep = lemma_lab.check_band_gap(f, np.eye(d)[0], gamma, K=5)
    assert rep.gap == pytest.approx(2 * gamma, rel=1e-12)
    assert rep.f_bar_plus == pytest.approx(gamma)
    assert rep.f_bar_minus == pytest.approx(-gamma)
    assert rep.gap <= rep.bound


def test_check_band_gap_kernel_section():
    # f = k(., x0) for the sss kernel with x0 = e: by Funk-Hecke its band
    # average at height a is exactly kappa(a)
    d, gamma = 10, 0.01
    k = kernels.standard_kernel("sss")
    e = np.eye(d)[0]
    model = L.KernelModel(
        support=e[None, :], alpha=np.array([1.0]), b=0.0, C=1.0,
        kernel=k, loss=L.make_loss("hinge"),
    )
    rep = lemma_lab.check_band_gap(model, e, gamma, K=20)
    assert abs(rep.f_bar_plus - float(k.profile_value(gamma))) <= 1e-12
    assert abs(rep.f_bar_minus - float(k.profile_value(-gamma))) <= 1e-12
    assert rep.gap <= rep.bound


def test_band_averages_match_monte_carlo():
    # the exact band averages of a trained d=25 model agree with Monte Carlo
    # means over 2e4 band points within 4 standard errors
    cfg = ExperimentConfig(d=25, gamma=0.01, lambda3=0.02, kernel="rbf",
                           kernel_params={"sigma": 1.0}, C=20.0,
                           n_train=400, n_test=1, max_iters=60, n_restarts=2)
    trial = Trial(cfg, 0)
    model, e = trial.model, trial.spec.e
    rep = lemma_lab.check_band_gap(model, e, cfg.gamma, cfg.band_cutoff)
    rng = RngStream(11, 0)
    for a, exact in ((cfg.gamma, rep.f_bar_plus), (-cfg.gamma, rep.f_bar_minus)):
        vals = model.decision_function(sample_band(e, np.full(20000, a), rng))
        vals -= model.b
        se = float(np.std(vals, ddof=1)) / np.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - exact) <= 4 * se


def test_check_band_gap_violation_detected():
    # steep zonal function with a tiny claimed cutoff-free bound: use a raw
    # function whose gap is forced above the bound by shrinking the tail term
    # a pure degree-15 zonal term is all tail at K=1: with the tail constants
    # zeroed out the bound drops below the exact gap and the check must trip
    d = 5
    alpha = np.zeros(16)
    alpha[15] = 1.0
    f = op.PolyCoeffs(d, alpha)
    tight = op.TailConstants(E=1e-12, r=1e-12, s=1e-12)
    with pytest.raises(lemma_lab.GapViolationError):
        lemma_lab.check_band_gap(f, np.eye(d)[0], 0.05, K=1, consts=tight)


def test_check_band_gap_type_error():
    with pytest.raises(TypeError):
        lemma_lab.check_band_gap(lambda x: 0.0, np.eye(5)[0], 0.01, K=3)

