"""RunRequest identity: canonical form, cache keys, validation."""

import json

import pytest

from repro.config import SimConfig
from repro.errors import RunSpecError
from repro.sim.runspec import RunRequest, VmRequest


def _linux(**overrides):
    fields = dict(app="swaptions", policy="first-touch")
    fields.update(overrides)
    return RunRequest(environment="linux", vms=(VmRequest(**fields),))


def _xen(**overrides):
    fields = dict(app="cg.C", policy="round-4k")
    fields.update(overrides)
    return RunRequest(environment="xen", vms=(VmRequest(**fields),), features="Xen+")


class TestCacheKeyStability:
    def test_equal_requests_equal_keys(self):
        assert _linux().cache_key() == _linux().cache_key()

    def test_key_survives_json_round_trip(self):
        request = _xen()
        again = RunRequest.from_json(request.to_json())
        assert again == request
        assert again.cache_key() == request.cache_key()

    def test_key_independent_of_payload_field_order(self):
        request = _xen()
        payload = request.to_json()
        # A client that serialized fields in another order must land on
        # the same content hash after a round trip.
        reordered = dict(reversed(list(payload.items())))
        reordered["vms"] = [dict(reversed(list(vm.items()))) for vm in payload["vms"]]
        assert RunRequest.from_json(reordered).cache_key() == request.cache_key()

    def test_defaults_are_serialized_explicitly(self):
        # Adding a field with a default later must not silently change
        # existing keys: every current field appears in the canonical form.
        payload = _linux().to_json()
        assert "unbatched_hypercalls" in payload
        assert "features" in payload
        vm = payload["vms"][0]
        for field in ("carrefour", "mcs_locks", "num_vcpus", "home_nodes"):
            assert field in vm

    def test_result_affecting_config_changes_key(self):
        base = _linux()
        for config in (
            SimConfig(rng_seed=7),
            SimConfig(epoch_seconds=0.5),
            SimConfig(page_scale=1),
        ):
            changed = RunRequest(
                environment="linux", vms=base.vms, config=config
            )
            assert changed.cache_key() != base.cache_key()

    def test_canonical_is_sorted_and_compact(self):
        canonical = _xen().canonical()
        assert canonical == json.dumps(
            json.loads(canonical), sort_keys=True, separators=(",", ":")
        )


class TestValidation:
    def test_linux_takes_exactly_one_vm(self):
        vms = (VmRequest(app="swaptions"), VmRequest(app="cg.C"))
        with pytest.raises(RunSpecError):
            RunRequest(environment="linux", vms=vms)

    def test_unknown_app_rejected(self):
        with pytest.raises(RunSpecError, match="no-such-app"):
            VmRequest(app="no-such-app")
        payload = _linux().to_json()
        payload["vms"][0]["app"] = "no-such-app"
        with pytest.raises(RunSpecError):
            RunRequest.from_json(payload)

    def test_unknown_environment_rejected(self):
        with pytest.raises(RunSpecError):
            RunRequest(environment="kvm", vms=(VmRequest(app="swaptions"),))

    def test_linux_rejects_xen_only_fields(self):
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="linux",
                vms=(VmRequest(app="swaptions"),),
                features="Xen+",
            )
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="linux",
                vms=(VmRequest(app="swaptions", num_vcpus=24),),
            )

    def test_linux_rejects_round_1g(self):
        with pytest.raises(RunSpecError):
            _linux(policy="round-1g")

    def test_xen_rejects_carrefour_on_round_1g(self):
        with pytest.raises(RunSpecError):
            _xen(policy="round-1g", carrefour=True)

    def test_xen_rejects_bad_feature_set(self):
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="xen",
                vms=(VmRequest(app="cg.C"),),
                features="Xen++",
            )

    def test_xen_rejects_per_vm_mcs(self):
        with pytest.raises(RunSpecError):
            _xen(mcs_locks=True)

    def test_cluster_reads_like_xen(self):
        request = RunRequest(
            environment="cluster",
            vms=(VmRequest(app="streamcluster"), VmRequest(app="facesim")),
            features="Xen+",
        )
        assert request.environment == "cluster"
        assert request.cache_key() == RunRequest.from_json(
            request.to_json()
        ).cache_key()

    def test_cluster_validates_policies_like_xen(self):
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="cluster",
                vms=(VmRequest(app="cg.C", policy="numad"),),
                features="Xen+",
            )
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="cluster",
                vms=(VmRequest(app="cg.C"),),
                features="Xen++",
            )

    def test_cluster_rejects_unbatched_hypercalls(self):
        with pytest.raises(RunSpecError):
            RunRequest(
                environment="cluster",
                vms=(VmRequest(app="cg.C"),),
                features="Xen+",
                unbatched_hypercalls=True,
            )


    @pytest.mark.parametrize(
        "field, value",
        [
            ("app", [[1]]),
            ("app", 7),
            ("num_vcpus", "4"),
            ("num_vcpus", [[1]]),
            ("num_vcpus", True),
            ("num_vcpus", 4.0),
            ("memory_pages", [[1]]),
            ("memory_pages", "64"),
        ],
    )
    def test_from_json_rejects_ill_typed_vm_fields(self, field, value):
        # Typed at the boundary: an ill-typed field used to pass here and
        # surface as a bare TypeError once the request executed.
        payload = _xen(num_vcpus=4, memory_pages=64).to_json()
        payload["vms"][0][field] = value
        with pytest.raises(RunSpecError):
            RunRequest.from_json(payload)

    def test_well_typed_vm_fields_are_accepted(self):
        request = _xen(num_vcpus=4, memory_pages=64)
        assert RunRequest.from_json(request.to_json()) == request


class TestNormalization:
    def test_sequences_become_tuples(self):
        vm = VmRequest(
            app="cg.C",
            num_vcpus=24,
            home_nodes=[0, 1, 2, 3],
            pin_pcpus=list(range(24)),
        )
        assert vm.home_nodes == (0, 1, 2, 3)
        assert vm.pin_pcpus == tuple(range(24))
        # Hashability is what dedup relies on.
        hash(RunRequest(environment="xen", vms=(vm,), features="Xen+"))

    def test_describe_mentions_apps_and_environment(self):
        text = _xen().describe()
        assert text.startswith("Xen+")
        assert "cg.C" in text
        assert _linux().describe().startswith("Linux")
