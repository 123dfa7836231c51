"""Unit tests for fitting and table helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.fitting import fit_power_law, geometric_grid
from repro.utils.tables import render_table


class TestFitPowerLaw:
    def test_exact_power_law(self):
        x = np.array([10.0, 100.0, 1000.0])
        y = 3.0 * x ** -0.5
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-0.5)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        x = np.array([1.0, 2.0, 4.0])
        y = 2.0 * x
        fit = fit_power_law(x, y)
        assert fit.predict(8.0) == pytest.approx(16.0)

    def test_matches_tolerance(self):
        x = np.array([10.0, 100.0])
        y = x ** -1.0
        fit = fit_power_law(x, y)
        assert fit.matches(-1.0, 0.01)
        assert not fit.matches(-0.5, 0.01)

    def test_noise_widens_stderr(self, rng):
        x = np.geomspace(10, 1000, 12)
        clean = fit_power_law(x, x ** -0.5)
        noisy = fit_power_law(x, x ** -0.5 * np.exp(rng.normal(0, 0.3, 12)))
        assert noisy.stderr > clean.stderr

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        exponent=st.floats(-2, 2, allow_nan=False),
        prefactor=st.floats(0.1, 10, allow_nan=False),
    )
    def test_recovers_any_exact_law(self, exponent, prefactor):
        x = np.array([10.0, 31.6, 100.0, 316.0])
        y = prefactor * x ** exponent
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)


class TestGeometricGrid:
    def test_endpoints(self):
        grid = geometric_grid(100, 1000, 5)
        assert grid[0] == 100 and grid[-1] == 1000

    def test_strictly_increasing(self):
        grid = geometric_grid(10, 10000, 12)
        assert np.all(np.diff(grid) > 0)

    def test_dedup_small_ranges(self):
        grid = geometric_grid(3, 5, 10)
        assert len(grid) == len(set(grid.tolist()))

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_grid(10, 5, 3)
        with pytest.raises(ValueError):
            geometric_grid(10, 100, 1)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "b"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-+-" in lines[1]

    def test_empty_rows(self):
        text = render_table(["col"], [])
        assert "col" in text

    def test_stringifies_values(self):
        text = render_table(["x"], [[1.5], [None]])
        assert "1.5" in text and "None" in text
