"""Tests for the verify suite's checks beyond their PASS lines."""

import numpy as np
import pytest

from spinboost import verify
from spinboost.channel import _evolve_stack


def transposed_kernel(m, n, decay, lost):
    """A positive but not completely positive map: the channel, then a transpose."""
    return _evolve_stack(m, n, decay, lost).swapaxes(-1, -2)


def shrunk_kernel(m, n, decay, lost):
    """A completely positive map that loses trace."""
    return 0.5 * _evolve_stack(m, n, decay, lost)


def test_cptp_grid_passes_on_the_channel():
    result = verify.check_cptp_grid()
    assert result.passed, result.line()
    assert result.detail.startswith("grid=10x10x5 min_choi_eig=")


def test_cptp_grid_fails_a_map_that_is_not_cp(monkeypatch):
    monkeypatch.setattr(verify, "_evolve_stack", transposed_kernel)
    result = verify.check_cptp_grid()
    assert not result.passed
    # the transpose of a state is a state: only the Choi spectrum catches it
    assert "invalid_probe_images" not in result.detail
    assert "min_choi_eig=-1 " in result.detail


def test_cptp_grid_fails_a_map_that_is_not_tp(monkeypatch):
    monkeypatch.setattr(verify, "_evolve_stack", shrunk_kernel)
    result = verify.check_cptp_grid()
    assert not result.passed
    assert "invalid_probe_images=3000" in result.detail
    tp = float(result.detail.split("max_tp_residual=")[1].split()[0])
    assert tp > 0.5


@pytest.mark.parametrize("kernel", [transposed_kernel, shrunk_kernel])
def test_cptp_grid_figures_stay_finite_on_failure(monkeypatch, kernel):
    monkeypatch.setattr(verify, "_evolve_stack", kernel)
    detail = verify.check_cptp_grid().detail
    for key in ("min_choi_eig=", "max_tp_residual=", "kraus_completeness=", "reassembly="):
        assert np.isfinite(float(detail.split(key)[1].split()[0]))
