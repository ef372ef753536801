"""Unit tests for the hyperparameter bundle."""

import math

import pytest

from repro.core.params import EPSILON_RATIO, TxAlloParams
from repro.errors import ParameterError


class TestValidation:
    def test_valid_params(self):
        p = TxAlloParams(k=4, eta=2.0, lam=50.0)
        assert p.k == 4

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=0)

    def test_k_must_be_int(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2.5)  # type: ignore[arg-type]

    def test_eta_below_one_rejected(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2, eta=0.5)

    def test_eta_of_exactly_one_allowed(self):
        assert TxAlloParams(k=2, eta=1.0).eta == 1.0

    def test_lam_must_be_positive(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2, lam=0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2, epsilon=-1.0)

    def test_tau1_not_exceeding_tau2(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2, tau1=100, tau2=50)

    def test_tau_must_be_positive(self):
        with pytest.raises(ParameterError):
            TxAlloParams(k=2, tau1=0)


class TestConveniences:
    def test_with_capacity_for_applies_paper_conventions(self):
        p = TxAlloParams.with_capacity_for(10_000, k=10, eta=4.0)
        assert p.lam == pytest.approx(1000.0)
        assert p.epsilon == pytest.approx(EPSILON_RATIO * 10_000)
        assert p.eta == 4.0

    def test_with_capacity_rejects_empty_history(self):
        with pytest.raises(ParameterError):
            TxAlloParams.with_capacity_for(0, k=4)

    def test_replace_revalidates(self):
        p = TxAlloParams(k=4)
        with pytest.raises(ParameterError):
            p.replace(k=-1)

    def test_replace_changes_field(self):
        p = TxAlloParams(k=4).replace(eta=6.0)
        assert p.eta == 6.0 and p.k == 4

    def test_shard_ids(self):
        assert list(TxAlloParams(k=3).shard_ids) == [0, 1, 2]

    def test_frozen(self):
        p = TxAlloParams(k=2)
        with pytest.raises(Exception):
            p.k = 5  # type: ignore[misc]

    def test_default_capacity_is_infinite(self):
        assert TxAlloParams(k=2).lam == math.inf

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TxAlloParams(k=4, workers=2),
            lambda: TxAlloParams.with_capacity_for(1000, k=4, workers=2),
        ],
        ids=["constructor", "with_capacity_for"],
    )
    def test_no_workers_knob(self, build):
        """Worker counts belong to the evaluation grid, not to the
        allocation parameters."""
        with pytest.raises(TypeError, match="workers"):
            build()
