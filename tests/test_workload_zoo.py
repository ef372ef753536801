"""Tests for the workload zoo: registry round-trip, per-generator
determinism, and the shape invariants each topology exists to provide."""

import dataclasses
import hashlib

import pytest

from repro.chain.types import Transaction
from repro.data.synthetic import (
    AdversarialWorkloadGenerator,
    CommunityDriftWorkloadGenerator,
    EthereumWorkloadGenerator,
    ExchangeHubWorkloadGenerator,
    HotSpotWorkloadGenerator,
    MintBurstWorkloadGenerator,
    WorkloadConfig,
    account_sets,
    address_from_int,
    get_workload_entry,
    make_workload_generator,
    register_workload,
    workload_names,
)
from repro.errors import ParameterError
from repro.eval.experiments import build_workload, live_setup


def small_config(**overrides):
    base = dict(num_accounts=600, num_transactions=4000, seed=3)
    base.update(overrides)
    return WorkloadConfig(**base)


ZOO = (
    "adversarial",
    "community_drift",
    "ethereum",
    "exchange_hub",
    "hotspot",
    "mint_burst",
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_topologies_registered(self):
        assert set(ZOO) <= set(workload_names())

    def test_round_trip_by_name(self):
        for name in ZOO:
            entry = get_workload_entry(name)
            assert entry.name == name
            assert entry.description
            assert entry.stress_axis
            generator = make_workload_generator(name, small_config())
            assert isinstance(generator, EthereumWorkloadGenerator)

    def test_factory_classes_match(self):
        assert isinstance(
            make_workload_generator("hotspot", small_config()), HotSpotWorkloadGenerator
        )
        assert isinstance(
            make_workload_generator("exchange_hub", small_config()),
            ExchangeHubWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("mint_burst", small_config()),
            MintBurstWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("community_drift", small_config()),
            CommunityDriftWorkloadGenerator,
        )
        assert isinstance(
            make_workload_generator("adversarial", small_config()),
            AdversarialWorkloadGenerator,
        )
        # The baseline resolves to the plain generator, not a subclass.
        assert type(make_workload_generator("ethereum", small_config())) is (
            EthereumWorkloadGenerator
        )

    def test_unknown_name_lists_available(self):
        with pytest.raises(ParameterError, match="available.*ethereum"):
            make_workload_generator("nope")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ParameterError, match="bad knobs"):
            make_workload_generator("hotspot", small_config(), bogus=1)

    def test_ethereum_rejects_knobs(self):
        with pytest.raises(ParameterError, match="no extra knobs"):
            make_workload_generator("ethereum", small_config(), spike_share=0.5)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_workload("ethereum", lambda config: None)

    def test_knobs_pass_through(self):
        generator = make_workload_generator(
            "hotspot", small_config(), spike_start=0.2, spike_end=0.5, spike_share=0.8
        )
        assert generator.spike_start == 0.2
        assert generator.spike_share == 0.8


# ----------------------------------------------------------------------
# Determinism & scaling — every topology
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("name", ZOO)
    def test_equal_configs_byte_identical(self, name):
        config = small_config()
        first = list(make_workload_generator(name, config).transactions())
        second = list(make_workload_generator(name, config).transactions())
        assert first == second

    @pytest.mark.parametrize("name", ZOO)
    def test_reiteration_byte_identical(self, name):
        """One generator instance must restart its stream identically —
        ``blocks()`` and ``dataset_card()`` regenerate it for direct callers."""
        generator = make_workload_generator(name, small_config())
        first = list(generator.transactions())
        second = list(generator.transactions())
        assert first == second

    @pytest.mark.parametrize("name", ZOO)
    def test_seed_changes_stream(self, name):
        a = list(make_workload_generator(name, small_config(seed=3)).transactions())
        b = list(make_workload_generator(name, small_config(seed=4)).transactions())
        assert a != b

    @pytest.mark.parametrize("name", ZOO)
    def test_counts_scale_with_config(self, name):
        small = make_workload_generator(name, small_config())
        large = make_workload_generator(
            name, small_config(num_accounts=1200, num_transactions=8000)
        )
        small_txs = list(small.transactions())
        large_txs = list(large.transactions())
        assert len(small_txs) == 4000
        assert len(large_txs) == 8000
        small_accounts = {a for tx in small_txs for a in tx.accounts}
        large_accounts = {a for tx in large_txs for a in tx.accounts}
        assert len(large_accounts) > len(small_accounts)

    @pytest.mark.parametrize("name", ZOO)
    def test_blocks_chunk_the_stream(self, name):
        generator = make_workload_generator(name, small_config())
        blocks = list(generator.blocks())
        total = sum(len(block.transactions) for block in blocks)
        assert total == 4000
        flat = [tx for block in blocks for tx in block.transactions]
        assert flat == list(generator.transactions())


#: sha256 per (topology, seed) of ``build_workload(scale=0.05)``: every
#: block hash, every account set and every dataset-card field.  Any
#: change to generation, block chunking or the derived views moves it;
#: a pure refactor of the build must not.
GOLDEN_WORKLOAD_DIGESTS = {
    ("adversarial", 1): "47ed5e982fa9b5c07864f4fd410e277c19dcd2815a5ed7a19bb406011ae3def2",
    ("adversarial", 2022): "2780ee787fe7500c11172af93e5da0a8bb5c94002512d31d240ff83aefe7ea14",
    ("community_drift", 1): "ec243fe230b95aba30d8a8f8a7e4a06643307f131fd201e896f2e16e33f0bd94",
    ("community_drift", 2022): "01ae0017ab3944300e426c24fd964bb287219cb43f552c07a820763bca31d2a3",
    ("ethereum", 1): "c28ce38d105a55eaf23b51a42ed607a371fe685c042946de839d036b89e8d361",
    ("ethereum", 2022): "1f2ca6857b2b060fb87253407371ce16c8f42900ebdc93f41a44c9e57dcef0cc",
    ("exchange_hub", 1): "1e940792315cbab52802db46c2a81677b3b465bb546d19ee8bee5060919ea9aa",
    ("exchange_hub", 2022): "1b18ca150d3522b616183cd75dde4b06f809fe7e2183a508ad8648dd2cf97326",
    ("hotspot", 1): "a4efd479d4275e89c63d673b402da55b02d367aec0e97a9464cf08740e6e8503",
    ("hotspot", 2022): "3db1636e006c842d29fafbaad3e9a8d90bc3914ffd92fd83b48423a730c6c86f",
    ("mint_burst", 1): "2467c626d780715f43d22797877647647276be2d92a9b0c8fe6ffa5cdbc8ab63",
    ("mint_burst", 2022): "eddd7c4ff104e41a9aa5ffc31dfe0d7d6d5965cf927e54e7474ac95f63d8d149",
}


class TestWorkloadGolden:
    @pytest.mark.parametrize("seed", (1, 2022))
    @pytest.mark.parametrize("name", ZOO)
    def test_workload_bytes_match_the_golden_digest(self, name, seed):
        workload = build_workload(scale=0.05, seed=seed, topology=name)
        digest = hashlib.sha256()
        for block in workload.blocks:
            digest.update(block.block_hash.encode())
        for accounts in workload.account_sets:
            digest.update(repr(accounts).encode())
        digest.update(repr(dataclasses.astuple(workload.card)).encode())
        assert digest.hexdigest() == GOLDEN_WORKLOAD_DIGESTS[name, seed]

        # The live seed history is the chain-order prefix of account_sets.
        setup = live_setup(
            workload,
            k=4,
            eta=2.0,
            seed_fraction=0.4,
            capacity_factor=1.5,
            no_live_blocks="no live blocks",
        )
        seed_stream, _ = workload.blocks.split(0.4)
        assert setup.seed_sets == seed_stream.account_sets()


class TestAccountSets:
    """``account_sets`` emits one-input/one-output transfers without a
    sort; every projection must still equal ``tuple(sorted(tx.accounts))``."""

    @pytest.mark.parametrize("seed", (1, 2022))
    @pytest.mark.parametrize("name", ZOO)
    def test_matches_the_sorted_projection_on_the_zoo(self, name, seed):
        txs = make_workload_generator(name, small_config(seed=seed)).generate()
        assert account_sets(txs) == [tuple(sorted(tx.accounts)) for tx in txs]

    def test_matches_the_sorted_projection_on_hand_made_transactions(self):
        a, b, c = (address_from_int(i) for i in (7, 3, 5))
        txs = [
            Transaction.transfer(a, b),
            Transaction.transfer(b, a),
            Transaction.transfer(a, a),
            Transaction(inputs=(a, a), outputs=(a,)),
            Transaction(inputs=(c, a), outputs=(b,)),
            Transaction(inputs=(a,), outputs=(b, c, b)),
            Transaction(inputs=(a, b), outputs=(b, a)),
            Transaction(inputs=(c,), outputs=(c, a)),
        ]
        sets_ = account_sets(txs)
        assert sets_ == [tuple(sorted(tx.accounts)) for tx in txs]
        assert sets_[2] == sets_[3] == (a,)
        assert all(type(accounts) is tuple for accounts in sets_)


# ----------------------------------------------------------------------
# Shape invariants — the stress axis each topology promises
# ----------------------------------------------------------------------
class TestHotSpot:
    def test_spike_concentrates_volume(self):
        generator = make_workload_generator("hotspot", small_config())
        txs = list(generator.transactions())
        in_window = [tx for i, tx in enumerate(txs) if generator.in_spike(i)]
        outside = [tx for i, tx in enumerate(txs) if not generator.in_spike(i)]
        hot = generator.hot
        window_share = sum(1 for tx in in_window if hot in tx.accounts) / len(in_window)
        outside_share = sum(1 for tx in outside if hot in tx.accounts) / len(outside)
        # spike_share=0.5 -> the hot contract carries >= 40% of the
        # window's volume and stays cold (a mid-tail account) outside it.
        assert window_share >= 0.4
        assert outside_share < 0.1

    def test_hot_is_not_the_hub(self):
        generator = make_workload_generator("hotspot", small_config())
        assert generator.hot != generator.hub

    def test_bad_window_rejected(self):
        with pytest.raises(ParameterError, match="spike window"):
            make_workload_generator("hotspot", small_config(), spike_start=0.7, spike_end=0.4)
        with pytest.raises(ParameterError, match="spike_share"):
            make_workload_generator("hotspot", small_config(), spike_share=1.5)


class TestExchangeHub:
    def test_hubs_carry_declared_share(self):
        generator = make_workload_generator(
            "exchange_hub", small_config(), num_hubs=3, hub_traffic_share=0.6
        )
        hubs = set(generator.hubs)
        txs = list(generator.transactions())
        hub_txs = sum(1 for tx in txs if hubs & set(tx.accounts))
        # At least the declared share touches a hub (base traffic can
        # also touch account 0, never fewer).
        assert hub_txs / len(txs) >= 0.55

    def test_periphery_stripes_are_disjoint(self):
        """Each hub's traffic volume concentrates on its own periphery
        stripe (index ≡ hub mod num_hubs); base traffic adds a trickle
        of off-stripe contacts."""
        generator = make_workload_generator("exchange_hub", small_config(), num_hubs=4)
        hubs = set(generator.hubs)
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        partners = {h: [] for h in range(generator.num_hubs)}
        for tx in generator.transactions():
            accounts = set(tx.accounts)
            for h, hub in enumerate(generator.hubs):
                if hub in accounts:
                    partners[h].extend(
                        index_of[a] for a in accounts - hubs
                        if index_of[a] >= generator.num_hubs
                    )
        for h, stripe in partners.items():
            assert stripe
            on_stripe = sum(1 for i in stripe if i % generator.num_hubs == h)
            assert on_stripe / len(stripe) > 0.8

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="num_hubs"):
            make_workload_generator("exchange_hub", small_config(), num_hubs=0)
        with pytest.raises(ParameterError, match="hub_traffic_share"):
            make_workload_generator("exchange_hub", small_config(), hub_traffic_share=1.0)


class TestMintBurst:
    def test_bursts_hit_the_mint_contract(self):
        generator = make_workload_generator("mint_burst", small_config())
        txs = list(generator.transactions())
        mint = generator.mint
        burst = [tx for i, tx in enumerate(txs) if generator.in_burst(i)]
        calm = [tx for i, tx in enumerate(txs) if not generator.in_burst(i)]
        assert burst and calm
        assert all(mint in tx.accounts for tx in burst)
        assert not any(mint in tx.accounts for tx in calm)

    def test_newcomers_are_outside_the_account_space(self):
        config = small_config()
        generator = make_workload_generator("mint_burst", config)
        base_accounts = set(generator.addresses)
        for i, tx in enumerate(generator.transactions()):
            if generator.in_burst(i):
                sender = tx.inputs[0]
                assert sender not in base_accounts
                assert sender == address_from_int(config.num_accounts + 1 + i)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="num_waves"):
            make_workload_generator("mint_burst", small_config(), num_waves=0)
        with pytest.raises(ParameterError, match="wave_fraction"):
            make_workload_generator("mint_burst", small_config(), wave_fraction=1.0)


class TestCommunityDrift:
    def test_epoch_views_differ(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=3, churn=0.4
        )
        views = [generator.community_view(e) for e in range(3)]
        assert views[0] != views[1]
        assert views[1] != views[2]
        moved = sum(1 for a, b in zip(views[0], views[1]) if a != b)
        # churn=0.4 of core accounts re-seat (minus the occasional mover
        # skipped to keep a community non-empty).
        assert moved >= 0.25 * len(views[0])

    def test_no_community_emptied(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=4, churn=0.5
        )
        num_comms = generator.config.resolved_communities()
        for epoch in range(4):
            view = generator.community_view(epoch)
            core = view[1 : generator.core_count]
            assert len(set(core)) == num_comms

    def test_epoch_of_partitions_the_stream(self):
        generator = make_workload_generator(
            "community_drift", small_config(), epochs=4
        )
        n = generator.config.num_transactions
        assert generator.epoch_of(0) == 0
        assert generator.epoch_of(n - 1) == 3
        epochs = [generator.epoch_of(i) for i in range(n)]
        assert epochs == sorted(epochs)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ParameterError, match="epochs"):
            make_workload_generator("community_drift", small_config(), epochs=0)
        with pytest.raises(ParameterError, match="churn"):
            make_workload_generator("community_drift", small_config(), churn=1.5)


class TestAdversarial:
    def test_every_transfer_crosses_communities(self):
        generator = make_workload_generator("adversarial", small_config())
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        for tx in generator.transactions():
            communities = {
                generator.community_of[index_of[a]] for a in tx.accounts
            }
            assert len(communities) > 1

    def test_cross_shard_floor_for_any_mapping(self):
        """No k=4 mapping can co-locate this traffic: even the oracle
        that places whole communities together leaves most transfers
        cross-shard."""
        generator = make_workload_generator("adversarial", small_config())
        index_of = {a: i for i, a in enumerate(generator.addresses)}
        k = 4
        mapping = {
            a: generator.community_of[index_of[a]] % k for a in generator.addresses
        }
        cross = 0
        txs = list(generator.transactions())
        for tx in txs:
            shards = {mapping[a] for a in tx.accounts}
            if len(shards) > 1:
                cross += 1
        assert cross / len(txs) > 0.5
