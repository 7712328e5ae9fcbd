"""Coverage for small branches not exercised elsewhere: the exception
hierarchy, reporting formats, runner aggregates, paperdata consistency, and
the packages' exported names."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import paperdata
from repro.analysis.reporting import Table, _format_cell
from repro.analysis.runner import TrialResult
from repro.exceptions import (
    EnumerationError,
    NotApplicableError,
    PrivacyParameterError,
    ReproError,
    ValidationError,
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ValidationError, PrivacyParameterError, NotApplicableError, EnumerationError):
            assert issubclass(exc, ReproError)

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(PrivacyParameterError, ValueError)

    def test_runtime_flavours(self):
        assert issubclass(NotApplicableError, RuntimeError)
        assert issubclass(EnumerationError, RuntimeError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise NotApplicableError("n/a")


class TestCellFormatting:
    def test_none_is_na(self):
        assert _format_cell(None) == "N/A"

    def test_strings_pass_through(self):
        assert _format_cell("abc") == "abc"

    def test_zero(self):
        assert _format_cell(0.0) == "0"

    def test_scientific_for_extremes(self):
        assert "e" in _format_cell(1234567.0)
        assert "e" in _format_cell(0.00001)

    def test_plain_for_moderate(self):
        assert _format_cell(0.25) == "0.25"

    def test_infinity(self):
        assert _format_cell(float("inf")) == "inf"


class TestTrialResult:
    def test_str_contains_fields(self):
        result = TrialResult("MQM", 0.5, 0.1, 100, 0.02)
        text = str(result)
        assert "MQM" in text
        assert "100" in text


class TestPaperdataConsistency:
    """The recorded paper constants must be internally consistent."""

    def test_flu_conditionals_normalize(self):
        for key in ("conditional_given_0", "conditional_given_1"):
            np.testing.assert_allclose(sum(paperdata.FLU_EXAMPLE[key]), 1.0)

    def test_flu_conditionals_follow_from_count_law(self):
        """P(N=j|X=1) ∝ j*P(N=j), P(N=j|X=0) ∝ (4-j)*P(N=j)."""
        base = np.asarray(paperdata.FLU_EXAMPLE["count_distribution"])
        j = np.arange(5)
        given1 = base * j / 4
        given0 = base * (4 - j) / 4
        np.testing.assert_allclose(
            given1 / given1.sum(), paperdata.FLU_EXAMPLE["conditional_given_1"], atol=1e-12
        )
        np.testing.assert_allclose(
            given0 / given0.sum(), paperdata.FLU_EXAMPLE["conditional_given_0"], atol=1e-12
        )

    def test_composition_scores_follow_from_influences(self):
        cards = {"trivial": 3, "left": 2, "right": 2, "both": 1}
        eps = paperdata.COMPOSITION_EXAMPLE["epsilon"]
        for name, influence in paperdata.COMPOSITION_EXAMPLE["influences"].items():
            expected = cards[name] / (eps - influence)
            assert paperdata.COMPOSITION_EXAMPLE["scores"][name] == pytest.approx(
                expected, abs=1e-4
            )

    def test_running_example_transitions_are_stochastic(self):
        for key in ("theta1", "theta2"):
            matrix = np.asarray(paperdata.RUNNING_EXAMPLE[key]["transition"])
            np.testing.assert_allclose(matrix.sum(axis=1), [1.0, 1.0])

    def test_table_shapes(self):
        assert len(paperdata.TABLE1["columns"]) == 6
        for mech in ("DP", "GroupDP", "GK16", "MQMApprox", "MQMExact"):
            assert len(paperdata.TABLE1[mech]) == 6
        assert len(paperdata.TABLE3["epsilons"]) == 3
        for mech in ("GroupDP", "GK16", "MQMApprox", "MQMExact"):
            assert len(paperdata.TABLE3[mech]) == 3

    def test_table3_groupdp_is_analytic(self):
        """GroupDP on one chain: E[L1] = 2k/eps — the paper's values agree
        to within trial noise, pinning our harness's closed form."""
        k = paperdata.TABLE3["n_states"]
        for eps, reported in zip(paperdata.TABLE3["epsilons"], paperdata.TABLE3["GroupDP"]):
            assert reported == pytest.approx(2 * k / eps, rel=0.05)


class TestTableRendering:
    def test_empty_table_renders_header(self):
        table = Table("Empty", ["a", "b"])
        text = table.render()
        assert "Empty" in text
        assert "a" in text


class TestPublicExports:
    def test_every_exported_name_resolves(self):
        """Every name in ``repro.__all__`` and in each subpackage's
        ``__all__`` resolves.  Lazy packages map names to modules and fail
        only when a name is first read, so a stale entry shows here."""
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        unresolved = [
            f"{package.__name__}.{name}"
            for package in packages
            for name in getattr(package, "__all__", ())
            if not hasattr(package, name)
        ]
        assert unresolved == []
