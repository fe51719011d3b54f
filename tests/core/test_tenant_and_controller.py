"""Tenant requests and placements."""

import pytest

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import Placement, TenantClass, TenantRequest


def guarantee(**kwargs):
    defaults = dict(bandwidth=units.gbps(0.5), burst=15 * units.KB,
                    delay=units.msec(1), peak_rate=units.gbps(10))
    defaults.update(kwargs)
    return NetworkGuarantee(**defaults)


class TestTenantRequest:
    def test_ids_are_unique(self):
        a = TenantRequest(n_vms=2, guarantee=guarantee())
        b = TenantRequest(n_vms=2, guarantee=guarantee())
        assert a.tenant_id != b.tenant_id

    def test_default_name(self):
        request = TenantRequest(n_vms=2, guarantee=guarantee())
        assert request.name == f"tenant-{request.tenant_id}"

    def test_best_effort_may_omit_guarantee(self):
        request = TenantRequest(n_vms=2, guarantee=None,
                                tenant_class=TenantClass.BEST_EFFORT)
        assert not request.wants_delay

    def test_guaranteed_class_requires_guarantee(self):
        with pytest.raises(ValueError):
            TenantRequest(n_vms=2, guarantee=None,
                          tenant_class=TenantClass.CLASS_A)

    def test_needs_vms(self):
        with pytest.raises(ValueError):
            TenantRequest(n_vms=0, guarantee=guarantee())


class TestPlacement:
    def test_vm_count_must_match(self):
        request = TenantRequest(n_vms=3, guarantee=guarantee())
        with pytest.raises(ValueError):
            Placement(request=request, vm_servers=[0, 1])

    def test_vms_per_server(self):
        request = TenantRequest(n_vms=4, guarantee=guarantee())
        placement = Placement(request=request, vm_servers=[0, 0, 1, 2])
        assert placement.vms_per_server() == {0: 2, 1: 1, 2: 1}
