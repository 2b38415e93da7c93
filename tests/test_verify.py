import math

from qfridge import oracle
from qfridge.verify import check_thermalization_gradients


class TestThermalizationGradientReport:
    def test_wrong_slope_sign_reports_the_slope_and_the_machine(self, monkeypatch):
        for slopes, label, wrong in (((0.25, 0.5), "B", 0.25), ((-0.25, -0.5), "C", -0.5)):
            monkeypatch.setattr(
                oracle, "thermalization_gradient_check", lambda spec, t_b, t_c: slopes
            )
            result = check_thermalization_gradients(seed=5, cases=3)
            assert not result.passed
            assert math.isfinite(result.residual)
            assert result.residual == wrong
            assert f"d/dT_{label}" in result.detail
            for name in ("e_c=", "t_room=", "t_hot=", "t_b=", "t_c="):
                assert name in result.detail

    def test_passing_report_is_unchanged(self):
        result = check_thermalization_gradients(seed=5, cases=3)
        assert result.passed
        assert 0.0 <= result.residual <= result.tolerance == 1e-6
        assert result.detail == "3 machines, central differences vs closed-form slopes"
