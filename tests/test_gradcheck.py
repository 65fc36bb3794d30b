"""The finite-difference oracle itself, plus fault-injection detection."""

import numpy as np
import pytest

import stdcl.tensor as tz
from stdcl import gradcheck
from stdcl.errors import ConfigError
from stdcl.tensor import Tensor


def test_relative_error_definition():
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1e-3])
    assert gradcheck.relative_error(a, a) == 0.0
    assert gradcheck.relative_error(a, b) == pytest.approx(1e-3, rel=1e-6)
    # tiny norms guarded by the floor
    assert gradcheck.relative_error(np.zeros(2), np.zeros(2)) == 0.0


def test_finite_difference_matches_analytic_quadratic():
    # f(x) = sum(x^2): exact gradient 2x; FD should agree to ~1e-10
    x = np.array([0.5, -1.5, 2.0])
    fn = lambda t: tz.sum_all(tz.mul(t["x"], t["x"]))
    errs = gradcheck.compare_gradients(fn, {"x": x})
    assert errs["x"] < 1e-9


def test_every_registered_op_passes():
    results = gradcheck.run_op_checks(trials=5, seed=123)
    assert {r.name for r in results} == set(gradcheck.registered_ops())
    for r in results:
        assert r.passed, r.summary()


def test_registry_covers_all_backward_ops():
    # every op that installs a backward rule must be checked
    import stdcl.tensor as eng

    checked = set(gradcheck.registered_ops())
    # sum_all is sum_over_axes over all axes; covered via its own entry
    public_ops = {
        "matmul", "add", "sub", "mul", "scalar_mul", "add_scalar", "exp", "log", "relu",
        "reshape", "gather1d", "sum_over_axes", "mean_over_axes",
        "softmax_cross_entropy", "l2_normalize", "temporal_conv",
    }
    for name in public_ops:
        assert hasattr(eng, name)
        assert name in checked, f"op {name} lacks a gradient-check case"


def test_unknown_op_filter_rejected():
    with pytest.raises(ConfigError, match="unknown op"):
        gradcheck.run_op_checks(ops=["matmul", "nonexistent"], trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_is_rejected(trials):
    with pytest.raises(ConfigError, match="at least 1 trial"):
        gradcheck.run_op_checks(ops=["matmul"], trials=trials)
    with pytest.raises(ConfigError, match="at least 1 trial"):
        gradcheck.run_pipeline_check(trials=trials)


def test_fault_injection_is_detected():
    with tz.inject_backward_fault("matmul"):
        results = gradcheck.run_op_checks(ops=["matmul"], trials=3, seed=0)
    assert not results[0].passed
    assert results[0].name == "matmul"
    # other ops unaffected afterwards
    clean = gradcheck.run_op_checks(ops=["matmul"], trials=3, seed=0)
    assert clean[0].passed


def test_fault_injection_names_offending_parameter():
    with tz.inject_backward_fault("l2_normalize"):
        results = gradcheck.run_op_checks(ops=["l2_normalize"], trials=2, seed=0)
    assert results[0].worst_param == "v"


def test_pipeline_check_passes_and_reports():
    result = gradcheck.run_pipeline_check(trials=3, seed=11)
    assert result.passed, result.summary()
    assert result.name == "full_pipeline"
    assert result.max_rel_err < gradcheck.PIPELINE_TOLERANCE


def test_pipeline_check_catches_injected_fault():
    with tz.inject_backward_fault("temporal_conv"):
        result = gradcheck.run_pipeline_check(trials=2, seed=11)
    assert not result.passed
    # the offending block must be named, and conv weights are where the flip lands
    assert result.worst_param != ""


def test_checks_run_in_float64_regardless_of_global_precision():
    with tz.using_precision("float32"):
        results = gradcheck.run_op_checks(ops=["exp"], trials=2, seed=5)
        assert results[0].passed
    assert tz.active_dtype() == np.float64
