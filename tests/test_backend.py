"""Unit tests for the float-precision backends."""

import numpy as np
import pytest

from repro.backend import (
    DEFAULT_RTOL,
    ArrayBackend,
    available_backends,
    default_backend,
    get_backend,
    resolve_backend,
)
from repro.geometry.neighbors import masked_nearest
from repro.geometry.torus import batched_pairwise_distances


class TestRegistry:
    def test_numpy_backends_always_available(self):
        names = available_backends()
        assert "numpy64" in names
        assert "numpy32" in names
        assert names == tuple(sorted(names))

    def test_default_is_canonical_numpy64(self):
        backend = default_backend()
        assert backend.name == "numpy64"
        assert backend.canonical
        assert backend.float_dtype is np.float64

    def test_numpy32_is_tolerance_gated(self):
        backend = get_backend("numpy32")
        assert not backend.canonical
        assert backend.float_dtype is np.float32

    def test_unknown_backend_names_the_available_ones(self):
        with pytest.raises(KeyError, match="numpy64"):
            get_backend("no-such-backend")

    def test_backends_are_a_name_a_dtype_and_a_tolerance(self):
        """The registry is fixed and holds no array-namespace seam."""
        import repro.backend as module

        assert available_backends() == ("numpy32", "numpy64")
        for name in ("register_backend", "using_backend"):
            assert not hasattr(module, name)
        for name in ("xp", "asarray", "to_device", "from_device"):
            assert not hasattr(default_backend(), name)
        assert ArrayBackend("x", np.float32).rtol == {}


class TestResolve:
    def test_none_resolves_to_numpy64(self):
        assert resolve_backend(None) is default_backend()

    def test_name_resolves(self):
        assert resolve_backend("numpy32").name == "numpy32"

    def test_instance_passes_through(self):
        backend = get_backend("numpy32")
        assert resolve_backend(backend) is backend


class TestTolerance:
    def test_canonical_backend_is_exact(self):
        assert default_backend().tolerance("torus_distance") == 0.0
        assert default_backend().tolerance("anything") == 0.0

    def test_numpy32_declares_per_kernel_rtol(self):
        backend = get_backend("numpy32")
        assert backend.tolerance("torus_distance") == pytest.approx(1e-5)
        assert backend.tolerance("contact_probability") == pytest.approx(1e-4)
        assert backend.tolerance("scheme_rate") == pytest.approx(1e-3)

    def test_unlisted_kernel_falls_back_to_default_rtol(self):
        backend = get_backend("numpy32")
        assert backend.tolerance("brand-new-kernel") == pytest.approx(DEFAULT_RTOL)


class TestDtypePolicy:
    @pytest.mark.parametrize("name", ["numpy64", "numpy32"])
    def test_distances_come_in_the_backend_dtype(self, name):
        backend = get_backend(name)
        points = np.random.default_rng(0).random((6, 2))
        out = batched_pairwise_distances(points, dtype=backend.float_dtype)
        assert out.dtype == backend.float_dtype

    def test_attach_distances_stay_float64(self):
        rng = np.random.default_rng(1)
        _nearest, distance = masked_nearest(
            rng.random((9, 2)), rng.random((3, 2)), dtype=np.float32
        )
        assert distance.dtype == np.float64


class TestOptionalBackends:
    """Only the numpy backends are registered out of the box."""

    def test_unavailable_optionals_not_listed(self):
        names = available_backends()
        for optional in ("cupy", "torch"):
            assert optional not in names
