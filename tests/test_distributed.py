"""Multi-device distributed coloring: identity, topology, transports.

The contracts under test (see ``src/repro/distributed/`` and
docs/DISTRIBUTED.md):

* **byte-identity** — ``color_distributed(devices=k)`` returns colors
  byte-identical to ``color_sharded(num_shards=k)``, for every device
  count, topology, transport, and speculation mode;
* **halo protocol** — every device's halo equals the global snapshot
  each round (``HaloState.verify``), which is what makes the identity
  hold;
* **speculation** — delta exchange synchronizes fewer device pairs and
  ships fewer modeled bytes than the lockstep loop, without changing
  the colors;
* **degradation** — persistent device failures fall back to a
  single-device serial ``color_sharded`` run (recorded, byte-identical),
  or raise :class:`DistributedColoringError` under a strict policy;
* **cache-key invariance** — ``devices=``/``topology=`` never fork
  ``job_cache_key``.
"""

import multiprocessing

import numpy as np
import pytest

from repro import (
    RunConfig,
    color_distributed,
    color_graph,
    color_sharded,
    rmat_er,
)
from repro.cli import main
from repro.coloring.registry import ENGINE_KEYWORDS
from repro.distributed import (
    DistributedColoringError,
    HaloState,
    Link,
    LocalTransport,
    Message,
    PoolTransport,
    TOPOLOGIES,
    Topology,
    build_halo_plan,
    resolve_topology,
    resolve_transport,
)
from repro.graph.builder import complete_graph, path_graph
from repro.graph.partition import block_partition
from repro.obs import round_rows
from repro.parallel import color_streamed
from repro.parallel.cache import job_cache_key
from repro.parallel.scheduler import ProcessPoolScheduler

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"
fork_only = pytest.mark.skipif(
    not _FORK, reason="pool transport tests rely on cheap fork workers"
)

UNIFORM_KEYS = ("sync_rounds", "halo_bytes_modeled", "speculation_hits")


@pytest.fixture(scope="module")
def medium():
    return rmat_er(scale=11, seed=7)


@pytest.fixture(scope="module")
def small():
    return rmat_er(scale=8, seed=3)


# ---------------------------------------------------------------- identity
@pytest.mark.parametrize("devices", [2, 4, 8])
def test_byte_identical_to_sharded(medium, devices):
    sharded = color_sharded(medium, "data-ldg", num_shards=devices)
    dist = color_distributed(medium, "data-ldg", devices=devices)
    assert np.array_equal(dist.colors, sharded.colors)
    dist.validate(medium)
    stats = dist.shard_stats
    assert stats["mode"] == "distributed"
    assert stats["devices"] == devices
    assert stats["resolution_rounds"] == sharded.shard_stats["resolution_rounds"]


def test_lockstep_and_every_topology_keep_identity(medium):
    base = color_sharded(medium, "data-ldg", num_shards=4)
    for topology in TOPOLOGIES:
        for speculate in (True, False):
            dist = color_distributed(
                medium, "data-ldg", devices=4,
                topology=topology, speculate=speculate,
            )
            assert np.array_equal(dist.colors, base.colors)
            assert dist.shard_stats["topology"] == topology


def test_host_scheme_distributes_too(medium):
    sharded = color_sharded(medium, "sequential", num_shards=3)
    dist = color_distributed(medium, "sequential", devices=3)
    assert np.array_equal(dist.colors, sharded.colors)
    assert dist.scheme == "distributed(sequential)x3@pcie"


def test_single_device_equals_direct(medium):
    dist = color_distributed(medium, "data-ldg", devices=1)
    direct = color_graph(medium, "data-ldg")
    assert np.array_equal(dist.colors, direct.colors)
    stats = dist.shard_stats
    assert stats["links"] == 0
    assert stats["sync_rounds"] == 0
    assert stats["halo_bytes_modeled"] == 0


def test_more_devices_than_vertices_is_capped():
    tiny = rmat_er(scale=4, seed=1)
    dist = color_distributed(tiny, "data-ldg", devices=10_000)
    dist.validate(tiny)
    assert dist.shard_stats["devices"] <= tiny.num_vertices


def test_devices_validation(medium):
    with pytest.raises(ValueError, match="devices"):
        color_distributed(medium, devices=0)


def test_unknown_method_fails_fast(medium):
    with pytest.raises(ValueError, match=r"color_distributed\(\): unknown method"):
        color_distributed(medium, "no-such-method", devices=2)


# -------------------------------------------------------------- speculation
def test_speculation_reduces_pair_syncs_and_bytes():
    # The weak-scaling benchmark's D=4 leg: fixed per-device shard size.
    g = rmat_er(scale=12, seed=5)
    spec = color_distributed(g, "data-ldg", devices=4, speculate=True)
    lock = color_distributed(g, "data-ldg", devices=4, speculate=False)
    assert np.array_equal(spec.colors, lock.colors)
    s, l = spec.shard_stats, lock.shard_stats
    assert s["resolution_rounds"] == l["resolution_rounds"]
    rounds, links = l["resolution_rounds"], l["links"]
    # Lockstep: every linked pair synchronizes every round, plus the
    # initial full exchange.
    assert l["sync_rounds"] == links * (rounds + 1)
    assert l["speculation_hits"] == 0
    # Speculation skips exactly the pair-rounds it avoided.
    assert s["sync_rounds"] + s["speculation_hits"] == l["sync_rounds"]
    assert s["speculation_hits"] > 0
    assert s["sync_rounds"] < l["sync_rounds"]
    assert s["halo_bytes_modeled"] < l["halo_bytes_modeled"]
    assert spec.scheme == "distributed(data-ldg)x4@pcie"
    assert lock.scheme == "distributed(data-ldg)x4@pcie:lockstep"


def test_comm_cost_lands_in_transfer_time(medium):
    dist = color_distributed(medium, "data-ldg", devices=4)
    stats = dist.shard_stats
    assert stats["comm_time_us"] > 0
    # transfer_time_us = slowest device's PCIe time + interconnect cost.
    assert dist.transfer_time_us >= stats["comm_time_us"]


# ----------------------------------------------------------------- topology
def test_link_transfer_arithmetic():
    link = Link(5.0, 6.0)  # 6 GB/s = 6000 bytes/us
    assert link.transfer_us(6000) == pytest.approx(5.0 + 1.0)
    assert link.transfer_us(6000, hops=2) == pytest.approx(10.0 + 1.0)


def test_shared_bus_sums_and_all_to_all_maxes():
    msgs = [Message(0, 1, 6000), Message(1, 0, 6000)]
    pcie = TOPOLOGIES["pcie"](2)
    nvlink = TOPOLOGIES["nvlink"](2)
    per_pcie = pcie.link.transfer_us(6000)
    assert pcie.exchange_time_us(msgs) == pytest.approx(2 * per_pcie)
    per_nv = nvlink.link.transfer_us(6000)
    assert nvlink.exchange_time_us(msgs) == pytest.approx(per_nv)


def test_ring_routes_over_hops():
    ring = TOPOLOGIES["ring"](4)
    assert ring.hops(0, 1) == 1
    assert ring.hops(0, 2) == 2
    assert ring.hops(0, 3) == 1  # wraps around
    # A 2-hop message occupies both crossed links; concurrent links mean
    # the round costs one (identically loaded) link's time.
    cost = ring.exchange_time_us([Message(0, 2, 8000)])
    assert cost == pytest.approx(ring.link.transfer_us(8000))


def test_empty_exchange_is_free():
    assert TOPOLOGIES["pcie"](4).exchange_time_us([]) == 0.0


def test_unknown_topology_error(medium):
    with pytest.raises(
        ValueError, match=r"color_distributed\(\): unknown topology 'pciex'"
    ):
        color_distributed(medium, devices=2, topology="pciex")
    with pytest.raises(ValueError, match="did you mean 'pcie'"):
        resolve_topology("pciee", 2, entry_point="color_distributed")


def test_topology_instance_passthrough_and_mismatch(medium):
    topo = Topology("custom", "all-to-all", 3, Link(1.0, 50.0))
    dist = color_distributed(medium, "data-ldg", devices=3, topology=topo)
    assert dist.shard_stats["topology"] == "custom"
    with pytest.raises(ValueError, match="models 3 device"):
        color_distributed(medium, devices=2, topology=topo)
    with pytest.raises(TypeError, match="topology="):
        resolve_topology(42, 2)


# ---------------------------------------------------------------- halo plan
def test_halo_plan_on_a_path():
    g = path_graph(4)  # 0-1-2-3 split as [0,1] | [2,3]
    plan = build_halo_plan(g, block_partition(g, 2))
    assert plan.pairs == [(0, 1), (1, 0)]
    assert plan.send[(0, 1)].tolist() == [1]
    assert plan.send[(1, 0)].tolist() == [2]
    assert plan.boundary_count() == 2
    assert plan.full_exchange_bytes() == 2 * 4  # two int32 colors
    assert plan.recv_ids[0].tolist() == [2]
    assert plan.recv_ids[1].tolist() == [1]


def test_halo_state_verify_catches_drift(small):
    plan = build_halo_plan(small, block_partition(small, 3))
    truth = color_graph(small, "sequential").colors
    halo = HaloState(plan)
    for (d, e), ids in plan.send.items():
        halo.apply(e, ids, truth[ids])
    halo.verify(truth)  # delivered halos == ground truth
    victim = next(e for (d, e), ids in plan.send.items() if ids.size)
    halo.colors[victim][0] += 1
    with pytest.raises(AssertionError, match="halo drift"):
        halo.verify(truth)


# --------------------------------------------------------------- transports
@fork_only
def test_pool_transport_parity_with_local(small):
    local = color_distributed(small, "data-ldg", devices=3, transport="local")
    pool = color_distributed(
        small, "data-ldg", devices=3,
        transport=PoolTransport(scheduler=ProcessPoolScheduler(2)),
    )
    assert np.array_equal(pool.colors, local.colors)
    ls, ps = dict(local.shard_stats), dict(pool.shard_stats)
    assert ls.pop("transport") == "local" and ps.pop("transport") == "pool"
    # Everything else — modeled bytes, sync rounds, per-shard rows — is
    # transport-invariant.
    assert ls == ps
    # The by-name spelling reaches the same colors as color_sharded.
    by_name = color_distributed(
        small, "data-ldg", devices=3, transport="pool", workers=2
    )
    assert by_name.shard_stats["transport"] == "pool"
    sharded = color_sharded(small, "data-ldg", num_shards=3)
    assert np.array_equal(by_name.colors, sharded.colors)


def test_resolve_transport_defaults_and_errors():
    assert isinstance(resolve_transport(None), LocalTransport)
    pool = resolve_transport(None, workers=2)
    assert isinstance(pool, PoolTransport) and pool.workers == 2
    passthrough = LocalTransport()
    assert resolve_transport(passthrough) is passthrough
    with pytest.raises(
        ValueError, match=r"color_distributed\(\): unknown transport 'sockets'"
    ):
        resolve_transport("sockets", entry_point="color_distributed")
    with pytest.raises(ValueError, match="did you mean 'local'"):
        resolve_transport("loca")
    with pytest.raises(TypeError, match="transport="):
        resolve_transport(42)


def test_transport_deliver_models_payload_bytes():
    ids = np.arange(5, dtype=np.int64)
    cols = np.ones(5, dtype=np.int32)
    for xport in (LocalTransport(), PoolTransport()):
        assert xport.deliver([(0, 1, ids, cols)]) == ids.nbytes + cols.nbytes


def test_store_shipping_keeps_identity(small, tmp_path):
    base = color_distributed(small, "data-ldg", devices=3)
    shipped = color_distributed(
        small, "data-ldg", devices=3, store=f"mmap:{tmp_path}"
    )
    assert np.array_equal(shipped.colors, base.colors)


# -------------------------------------------------------------- degradation
def test_device_failures_degrade_to_sharded(small):
    healthy = color_sharded(small, "data-ldg", num_shards=3)
    dist = color_distributed(
        small, "data-ldg", devices=3,
        faults="seed=4; job-error:",  # every device, every attempt
    )
    assert np.array_equal(dist.colors, healthy.colors)
    stats = dist.shard_stats
    assert stats["degraded"] == "sharded"
    assert stats["failed_devices"] == [0, 1, 2]
    # The healing run is single-address-space sharded coloring: global
    # sync per round, no modeled halo traffic.
    assert stats["sync_rounds"] == stats["resolution_rounds"]
    assert stats["halo_bytes_modeled"] == 0
    assert stats["speculation_hits"] == 0
    chains = [d["chain"] for d in dist.robustness["degradations"]]
    assert "distributed" in chains
    event = next(
        d for d in dist.robustness["degradations"] if d["chain"] == "distributed"
    )
    assert event["from"] == "distributed(x3,local)"
    assert event["to"] == "sharded"
    assert event["reason"] == "device-failures"


def test_strict_policy_raises_distributed_error(small):
    with pytest.raises(DistributedColoringError, match="device shard"):
        color_distributed(
            small, "data-ldg", devices=3,
            faults="seed=4; job-error:", health="strict",
        )


@fork_only
def test_worker_crash_in_pool_degrades_to_sharded(small):
    healthy = color_sharded(small, "data-ldg", num_shards=3)
    dist = color_distributed(
        small, "data-ldg", devices=3,
        transport=PoolTransport(
            scheduler=ProcessPoolScheduler(2, retries=1, backoff_s=0.0)
        ),
        faults="seed=4; worker-crash:",
    )
    assert np.array_equal(dist.colors, healthy.colors)
    assert dist.shard_stats["degraded"] == "sharded"
    event = next(
        d for d in dist.robustness["degradations"] if d["chain"] == "distributed"
    )
    assert event["from"] == "distributed(x3,pool)"


@fork_only
def test_worker_crash_strict_raises(small):
    with pytest.raises(DistributedColoringError):
        color_distributed(
            small, "data-ldg", devices=3,
            transport=PoolTransport(
                scheduler=ProcessPoolScheduler(2, retries=1, backoff_s=0.0)
            ),
            faults="seed=4; worker-crash:", health="strict",
        )


def test_round_cap_falls_back_to_sequential_sweep():
    g = complete_graph(8)
    dist = color_distributed(
        g, "data-ldg", devices=2, max_resolution_rounds=0, health="default",
    )
    dist.validate(g)
    stats = dist.shard_stats
    assert stats["fallback"] is True
    events = [
        d for d in dist.robustness["degradations"] if d["chain"] == "distributed"
    ]
    assert events and events[0]["reason"] == "round-cap"
    assert events[0]["to"] == "sequential-sweep"


# ------------------------------------------------------ cache-key invariance
def test_devices_and_topology_never_fork_cache_keys(small):
    assert {"devices", "topology"} <= set(ENGINE_KEYWORDS)
    base = job_cache_key(small, "data-ldg", {})
    assert job_cache_key(
        small, "data-ldg", {"devices": 8, "topology": "ring"}
    ) == base
    assert job_cache_key(
        small, "data-ldg", {"devices": 2, "topology": "nvlink", "workers": 4}
    ) == base


# --------------------------------------------------------- uniform stats
def test_shard_stats_uniform_keys_across_modes(small):
    sharded = color_sharded(small, "data-ldg", num_shards=3)
    streamed = color_streamed(small, "data-ldg", num_windows=3)
    dist = color_distributed(small, "data-ldg", devices=3)
    for result in (sharded, streamed, dist):
        for key in UNIFORM_KEYS:
            assert key in result.shard_stats
    # One address space: a resolution round is one global sync, no bytes.
    for result in (sharded, streamed):
        stats = result.shard_stats
        assert stats["sync_rounds"] == stats["resolution_rounds"]
        assert stats["halo_bytes_modeled"] == 0
        assert stats["speculation_hits"] == 0
    assert dist.shard_stats["halo_bytes_modeled"] > 0


def test_to_dict_schema_v1_carries_distributed_stats(small):
    d = color_distributed(small, "data-ldg", devices=3).to_dict(schema_version=1)
    assert d["schema_version"] == 1
    for key in UNIFORM_KEYS:
        assert key in d["shard_stats"]
    assert d["shard_stats"]["mode"] == "distributed"


# ------------------------------------------------------------- run config
def test_run_config_routes_devices_and_topology(medium):
    cfg = RunConfig(devices=3, topology="ring")
    dist = color_distributed(medium, "data-ldg", config=cfg)
    assert dist.scheme == "distributed(data-ldg)x3@ring"
    base = color_sharded(medium, "data-ldg", num_shards=3)
    assert np.array_equal(dist.colors, base.colors)


def test_run_config_conflicts_and_unsupported(medium):
    with pytest.raises(TypeError, match="'devices' both ways"):
        color_distributed(
            medium, devices=3, config=RunConfig(devices=5)
        )
    # The defaults spelled out explicitly are still explicit.
    with pytest.raises(TypeError, match="'devices' both ways"):
        color_distributed(medium, devices=4, config=RunConfig(devices=2))
    with pytest.raises(TypeError, match="'topology' both ways"):
        color_distributed(
            medium, topology="pcie", config=RunConfig(topology="ring")
        )
    with pytest.raises(TypeError, match="does not take"):
        color_graph(medium, "data-ldg", config=RunConfig(devices=2))


# ---------------------------------------------------------- observability
_MODES = {
    "sharded": lambda g: color_sharded(g, "data-ldg", num_shards=4, observe="trace"),
    "sharded-workers": lambda g: color_sharded(
        g, "data-ldg", num_shards=4, workers=2, observe="trace"),
    "streamed": lambda g: color_streamed(g, "data-ldg", num_windows=4, observe="trace"),
    "distributed-local": lambda g: color_distributed(
        g, "data-ldg", devices=4, transport="local", observe="trace"),
    "distributed-pool": lambda g: color_distributed(
        g, "data-ldg", devices=4, transport="pool", workers=2, observe="trace"),
}


def _round_pairs(result):
    return [(r["active"], r["conflicts"]) for r in round_rows(result.observation)]


@pytest.mark.parametrize("mode", [
    "sharded", "sharded-workers", "streamed", "distributed-local",
    pytest.param("distributed-pool", marks=fork_only),
])
def test_every_partitioned_mode_traces_the_same_rounds(medium, mode):
    """Per-round data does not depend on how the pieces were run.

    Only counts are compared: streamed windows share one warm context,
    so their simulated round times legitimately differ.
    """
    reference = _round_pairs(_MODES["sharded"](medium))
    result = _MODES[mode](medium)
    assert len(reference) > 4  # four pieces, several rounds each
    assert _round_pairs(result) == reference
    [run] = result.observation.runs()  # the piece runs nest inside it
    assert len(run.find("run")) == 5


def test_trace_merges_device_subtraces_and_exchanges(medium):
    dist = color_distributed(medium, "data-ldg", devices=4, observe="trace")
    tracer = dist.observation
    [root] = tracer.roots
    assert root.category == "run" and root.name.startswith("distributed:")
    assert root.counters["devices"] == 4
    devices = [s for s in root.children if s.category == "device"]
    assert len(devices) == 4
    exchanges = root.find("exchange")
    assert exchanges and exchanges[0].name == "halo-exchange:initial"
    assert exchanges[0].counters["mode"] == "full"
    [resolve] = root.find("resolve")
    assert resolve.counters["sync_rounds"] == dist.shard_stats["sync_rounds"]
    assert resolve.counters["remaining_conflicts"] == 0
    for span, _ in tracer.walk():
        assert span.end_us is not None


# ------------------------------------------------------------------- CLI
def test_cli_color_devices(capsys):
    assert main([
        "color", "--graph", "rmat-er", "--scale-div", "256",
        "--devices", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "devices: 2 @ pcie" in out
    assert "speculation hits" in out


def test_cli_color_devices_lockstep_ring(capsys):
    assert main([
        "color", "--graph", "rmat-er", "--scale-div", "256",
        "--devices", "2", "--topology", "ring", "--lockstep",
    ]) == 0
    assert "ring (local, lockstep)" in capsys.readouterr().out


def test_cli_batch_devices_digest(capsys):
    assert main([
        "batch", "--graphs", "rmat-er", "rmat-er", "--scale-div", "256",
        "--devices", "2", "--digest",
    ]) == 0
    out = capsys.readouterr().out
    assert "distributed(data-ldg)x2@pcie" in out and "sha16" in out


def test_cli_flag_combinations_rejected():
    base = ["color", "--graph", "rmat-er", "--scale-div", "256"]
    with pytest.raises(SystemExit, match="needs --devices"):
        main(base + ["--topology", "ring"])
    with pytest.raises(SystemExit, match="--shards/--stream"):
        main(base + ["--devices", "2", "--shards", "2"])
    with pytest.raises(SystemExit, match="--cache"):
        main(base + ["--devices", "2", "--cache", "memory"])
