"""Verdict types: construction, validation and the dataclass behaviour
their written-out constructors keep."""

import dataclasses
import math

import numpy as np
import pytest

from nonadd.results import CheckResult, RelationVerdict


class TestCheckResult:
    def test_frozen_equal_and_replaceable(self):
        res = CheckResult(True, margin=0.25, mode="grid", detail={"k": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.holds = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.margin = 0.5
        assert res == CheckResult(True, 0.25, None, "grid", "checked", {"k": 1})
        assert res != CheckResult(True, margin=0.25, mode="exhaustive", detail={"k": 1})
        assert repr(res) == ("CheckResult(holds=True, margin=0.25, witness=None, mode='grid', "
                             "status='checked', detail={'k': 1})")
        moved = dataclasses.replace(res, mode="explicit")
        assert moved == CheckResult(True, margin=0.25, mode="explicit", detail={"k": 1})
        assert moved.detail is res.detail
        assert [f.name for f in dataclasses.fields(CheckResult)] == \
            ["holds", "margin", "witness", "mode", "status", "detail"]

    def test_defaults(self):
        a, b = CheckResult(True), CheckResult(False, 1.0, {"x": 0})
        assert (a.margin, a.witness, a.mode, a.status) == (math.inf, None, "exhaustive", "checked")
        assert a.detail == {} and b.detail == {}
        assert a.detail is not b.detail          # a fresh dict for each instance
        assert a.to_dict() == {"holds": True, "margin": "inf", "mode": "exhaustive",
                               "status": "checked"}

    def test_zero_margin_reads_positive(self):
        for zero in (-0.0, np.float64(-0.0), 0.0, np.float64(0.0)):
            res = CheckResult(True, margin=zero)
            assert type(res.margin) is float and math.copysign(1.0, res.margin) == 1.0
            assert repr(res.margin) == "0.0"
            res = CheckResult(False, margin=zero, witness={"x": 0})
            assert repr(res.margin) == "0.0"
        # other margins pass through as given
        for margin in (np.float64(0.5), -0.25, math.inf, 0):
            assert CheckResult(True, margin=margin).margin is margin

    def test_failure_needs_a_witness(self):
        with pytest.raises(ValueError, match="failing CheckResult requires a witness"):
            CheckResult(False, margin=1.0)
        with pytest.raises(ValueError, match="failing CheckResult requires a witness"):
            dataclasses.replace(CheckResult(True), holds=False)


class TestRelationVerdict:
    def test_frozen_equal_and_replaceable(self):
        v = RelationVerdict("comonotone", False, {"point_x": 0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.holds = True
        assert v == RelationVerdict("comonotone", False, {"point_x": 0}, "exhaustive")
        assert repr(v) == ("RelationVerdict(relation='comonotone', holds=False, "
                           "witness={'point_x': 0}, mode='exhaustive')")
        assert dataclasses.replace(v, relation="pqd").relation == "pqd"
        assert RelationVerdict("pqd", True).to_dict() == \
            {"relation": "pqd", "holds": True, "mode": "exhaustive"}

    def test_failure_needs_a_witness(self):
        with pytest.raises(ValueError, match="failing RelationVerdict requires a witness"):
            RelationVerdict("pqd", False)
