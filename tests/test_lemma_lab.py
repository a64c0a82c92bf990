import json

import numpy as np
import pytest

from marginlab import kernels, lemma_lab
from marginlab import learners as L
from marginlab import orthopoly as op
from marginlab.sphere import RngStream


def test_band_report_json():
    rep = lemma_lab.BandReport(0.1, -0.2, 0.3, 5.0, (0.01, 0.02))
    doc = json.loads(rep.to_json())
    assert doc["gap"] == 0.3
    assert doc["std_errs"] == [0.01, 0.02]


def test_check_band_gap_linear_zonal():
    d, gamma = 8, 0.03
    f = op.PolyCoeffs(d, np.array([0.0, 1.0]))
    rep = lemma_lab.check_band_gap(f, np.eye(d)[0], gamma, K=5)
    assert rep.gap == pytest.approx(2 * gamma, rel=1e-12)
    assert rep.f_bar_plus == pytest.approx(gamma)
    assert rep.f_bar_minus == pytest.approx(-gamma)
    assert rep.gap <= rep.bound
    assert rep.std_errs == (0.0, 0.0)


def test_check_band_gap_kernel_section():
    # f = k(., x0) for the sss kernel: full Monte-Carlo pipeline
    d, gamma = 10, 0.01
    k = kernels.standard_kernel("sss")
    e = np.eye(d)[0]
    model = L.KernelModel(
        support=e[None, :], alpha=np.array([1.0]), b=0.0, C=1.0,
        kernel=k, loss=L.make_loss("hinge"),
    )
    rep = lemma_lab.check_band_gap(model, e, gamma, K=20, n_mc=256,
                                   rng=RngStream(1, 0))
    assert rep.gap <= rep.bound + 4 * sum(rep.std_errs)
    # the section is zonal about e, so the band means are exact values
    assert rep.f_bar_plus == pytest.approx(float(k.profile_value(gamma)), abs=1e-9)


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

