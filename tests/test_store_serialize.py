"""Round-trip tests for the store's tagged JSON serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.infrastructure.backbone import BackboneTopology
from repro.mobility.shapes import (
    ConeShape,
    QuadraticDecayShape,
    TruncatedGaussianShape,
    UniformDiskShape,
)
from repro.routing.base import FlowResult
from repro.store import canonical_json, content_digest, from_jsonable, to_jsonable


def roundtrip(obj):
    # through real JSON text, exactly like the journal does
    return from_jsonable(json.loads(json.dumps(to_jsonable(obj), allow_nan=False)))


class TestPrimitives:
    def test_scalars(self):
        for value in (None, True, False, 0, -3, "text", 0.25):
            assert roundtrip(value) == value

    def test_non_finite_floats_tagged(self):
        assert np.isnan(roundtrip(float("nan")))
        assert roundtrip(float("inf")) == float("inf")
        assert roundtrip(float("-inf")) == float("-inf")

    def test_float_bit_exact(self):
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        assert roundtrip(value) == value

    def test_tuple_vs_list_distinguished(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert isinstance(roundtrip((1, 2)), tuple)

    def test_non_string_dict_keys(self):
        data = {(0, 1): 2.5, (3, 4): 0.0}
        assert roundtrip(data) == data

    def test_fraction(self):
        assert roundtrip(Fraction(-7, 8)) == Fraction(-7, 8)

    def test_numpy_scalars_become_python(self):
        assert roundtrip(np.int64(4)) == 4
        assert roundtrip(np.float64(0.5)) == 0.5

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestNdarray:
    def test_float_array_bit_exact(self):
        array = np.random.default_rng(0).random((3, 4))
        back = roundtrip(array)
        assert back.dtype == array.dtype
        assert np.array_equal(back, array)

    def test_int_array_and_shape(self):
        array = np.arange(6, dtype=np.int32).reshape(2, 3)
        back = roundtrip(array)
        assert back.dtype == np.int32 and back.shape == (2, 3)
        assert np.array_equal(back, array)

    def test_array_with_nan(self):
        array = np.array([1.0, float("nan"), float("inf")])
        back = roundtrip(array)
        assert np.isnan(back[1]) and back[2] == float("inf")


class TestNetworkParameters:
    def test_roundtrip_with_infrastructure(self):
        params = NetworkParameters(
            alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=1
        )
        assert roundtrip(params) == params

    def test_roundtrip_without_infrastructure(self):
        params = NetworkParameters(alpha="1/2", cluster_exponent="1/2",
                                   cluster_radius_exponent="1/2")
        back = roundtrip(params)
        assert back == params and back.bs_exponent is None

    def test_roundtrip_validate_false_family(self):
        # the Table-I trivial row violates alpha <= 1/2 on purpose; decoding
        # must not re-validate
        params = NetworkParameters(
            alpha="3/4", cluster_exponent="1/4", cluster_radius_exponent="1/4",
            bs_exponent="3/4", backbone_exponent=1, validate=False,
        )
        assert roundtrip(params) == params


class TestBuildInputs:
    """Shapes and backbone topologies ride in a sweep's ``build_kwargs``."""

    @pytest.mark.parametrize(
        "shape",
        [
            UniformDiskShape(2.0),
            ConeShape(1.0),
            TruncatedGaussianShape(1.5, sigma=0.3),
            QuadraticDecayShape(0.5),
        ],
        ids=repr,
    )
    def test_shape_roundtrip(self, shape):
        back = roundtrip(shape)
        assert back == shape and type(back) is type(shape)

    @pytest.mark.parametrize("topology", list(BackboneTopology))
    def test_topology_roundtrip(self, topology):
        assert roundtrip({"backbone_topology": topology}) == {
            "backbone_topology": topology
        }

    def test_equal_shapes_encode_equal(self):
        assert canonical_json(UniformDiskShape(2)) == canonical_json(UniformDiskShape(2.0))
        assert canonical_json(ConeShape(1.0)) != canonical_json(QuadraticDecayShape(1.0))

    def test_custom_shape_subclass_rejected(self):
        class Custom(UniformDiskShape):
            pass

        with pytest.raises(TypeError):
            to_jsonable(Custom(1.0))


class TestFlowResult:
    def test_roundtrip_with_details(self):
        result = FlowResult(
            per_node_rate=1.5e-3,
            bottleneck="access",
            details={
                "generic_rate": 2.5e-3,
                "loads": np.array([1.0, 2.0]),
                "exact": Fraction(1, 3),
                "nested": {"worst": (4, 5)},
            },
        )
        back = roundtrip(result)
        assert isinstance(back, FlowResult)
        assert back.per_node_rate == result.per_node_rate
        assert back.bottleneck == "access"
        assert np.array_equal(back.details["loads"], result.details["loads"])
        assert back.details["exact"] == Fraction(1, 3)
        assert back.details["nested"]["worst"] == (4, 5)


class TestRegisteredDataclasses:
    def test_figure1_panel_roundtrip(self, rng):
        from repro.experiments.figure1 import UNIFORM_PARAMS, make_panel

        panel = make_panel(UNIFORM_PARAMS, 100, rng, "uniform", grid_side=8)
        back = roundtrip(panel)
        assert back.label == panel.label
        assert back.parameters == panel.parameters
        assert np.array_equal(back.positions, panel.positions)
        assert np.array_equal(back.field.values, panel.field.values)

    def test_spot_check_roundtrip(self):
        from repro.experiments.figure3 import SpotCheck

        check = SpotCheck(
            alpha=Fraction(1, 4), bs_exponent=Fraction(1, 4), phi=Fraction(0),
            predicted_region="mobility", scheme_a_rate=0.5, scheme_b_rate=0.25,
        )
        back = roundtrip(check)
        assert back == check and back.measured_region == "mobility"

    def test_unregistered_dataclass_rejected(self):
        from repro.experiments.scaling import SweepResult  # not a payload

        sweep = SweepResult(
            parameters=NetworkParameters(alpha="1/4", cluster_exponent=1),
            scheme="A", n_values=np.array([100]), rates=np.array([0.5]),
            trials=1, theory_exponent=-0.25, fit=None,
        )
        with pytest.raises(TypeError):
            to_jsonable(sweep)


class TestCanonicalJson:
    def test_deterministic_and_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_structural_equality_same_digest(self):
        p1 = NetworkParameters(alpha="1/4", cluster_exponent=1)
        p2 = NetworkParameters(alpha=Fraction(1, 4), cluster_exponent=1)
        assert content_digest(p1) == content_digest(p2)

    def test_different_content_different_digest(self):
        p1 = NetworkParameters(alpha="1/4", cluster_exponent=1)
        p2 = NetworkParameters(alpha="1/8", cluster_exponent=1)
        assert content_digest(p1) != content_digest(p2)
