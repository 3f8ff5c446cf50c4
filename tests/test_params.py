"""Parameter registry and security estimator checks.

The three production sets pin the published size/security numbers; the
validation tests exercise every rejection path with minimally broken
variants of toy-1.
"""

import dataclasses
import math

import pytest

from ldgmsig.params import (
    ParameterError,
    ParameterSet,
    builtin_sets,
    get_params,
    security_report,
)

# per-set pins: key bits = r n / p, KiB after rounding, then the two
# log2 estimates with the +-0.05 tolerance the reports claim
TABLE = {
    "ldgm-80": (960400, 117, 166.10, 82.76),
    "ldgm-120": (4667520, 570, 242.51, 140.19),
    "ldgm-160": (13800000, 1685, 326.49, 169.23),
}


def tweak(base, **kw):
    return dataclasses.replace(base, **kw)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_production_set_metrics(name):
    ps = get_params(name)
    bits, kib, log2_ns, log2_awc = TABLE[name]
    rep = security_report(ps)
    assert rep.key_size_bits == bits == ps.r * ps.n // ps.p
    assert rep.key_size_kib == kib
    assert rep.log2_ns == pytest.approx(log2_ns, abs=0.05)
    assert rep.log2_awc == pytest.approx(log2_awc, abs=0.05)


def test_report_internal_consistency():
    for ps in builtin_sets():
        rep = security_report(ps)
        # the syndrome count has an exact combinatorial route to compare
        exact = math.log2(math.comb(ps.r, ps.w)) - ps.z
        assert rep.log2_ns == pytest.approx(exact, abs=1e-6)
        assert rep.log2_birthday == pytest.approx(rep.log2_ns / 2, abs=1e-9)
        escape = math.log2(math.comb(ps.n, ps.k)) - math.log2(
            math.comb(ps.n - ps.m * ps.w, ps.k))
        assert rep.isd_escape_log2 == pytest.approx(escape, abs=1e-6)
        assert rep.sig_weight_bound == ps.sig_weight_bound
        record = rep.as_record()
        assert record.startswith(f"name={ps.name} ")
        assert f"sig_weight_bound={ps.sig_weight_bound}" in record


def test_derived_quantities():
    ps = get_params("toy-1")
    assert (ps.r, ps.n0, ps.k0, ps.r0) == (12, 6, 3, 3)
    assert ps.m == ps.m_t * ps.m_s == 2
    assert ps.mask_rows == 2
    assert ps.sig_weight_bound == (ps.m_t * ps.w + ps.w_c) * ps.m_s == 16
    assert get_params("ldgm-80").sig_weight_bound == 1602


def test_registry_contents():
    names = [ps.name for ps in builtin_sets()]
    assert names == ["ldgm-80", "ldgm-120", "ldgm-160", "toy-1"]
    with pytest.raises(ParameterError):
        get_params("ldgm-512")


def test_validation_rejections():
    base = get_params("toy-1")
    bad = [
        tweak(base, w=0),            # positivity
        tweak(base, k=24),           # k >= n
        tweak(base, p=5),            # p must divide n, k, r
        tweak(base, w_g=4),          # w_g must divide w_c
        tweak(base, w_c=60),         # more mask rows than code rows
        tweak(base, w=13),           # syndrome weight beyond r
        tweak(base, w=1, x=2, y=1),  # w below 2: b has no zero column
        tweak(base, x=8, y=8),       # C(12,2) cannot host 16 index bits
    ]
    for ps in bad:
        with pytest.raises(ParameterError):
            ps.validate()


def test_validate_returns_self():
    ps = ParameterSet("ok", n=24, k=12, p=4, w=2, w_g=3, w_c=6,
                      z=1, m_t=1, m_s=2, x=4, y=2)
    assert ps.validate() is ps


def test_report_text_and_json():
    rep = security_report(get_params("ldgm-80"))
    text = rep.as_text()
    assert "960400" in text and "117" in text
    assert rep.as_dict()["key_size_bits"] == 960400
