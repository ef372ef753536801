"""Synthetic Ethereum-like transaction workloads.

The paper evaluates on an XBlock/BigQuery export of 91,857,819 Ethereum
transactions over 12,614,390 accounts (blocks 10.0M-10.6M, summer 2020).
That dump is not redistributable here, so this generator synthesises a
workload reproducing the structural facts the paper states about it
(Section VI-A, Fig. 1) — the facts that actually drive every comparative
result:

* **long-tail account activity** — account popularity is Zipf-distributed;
  most accounts appear in a handful of transactions;
* **a hyper-active hub** — one account (a popular contract) participates
  in ~11 % of all transactions, which is what wrecks workload balance for
  graph partitioners (Fig. 4);
* **community structure** — accounts cluster (exchanges, DApps); most
  transactions stay inside a cluster, which is what TxAllo exploits;
* **self-loops** — e.g. self-sends used to replace pending transactions;
* **multi-input/multi-output transactions** — a small fraction of
  transactions touch more than two accounts (contract fan-outs).

Everything is driven by one integer seed; two generators with equal
configs produce byte-identical workloads.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import itertools
import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chain.types import Address, Block, Transaction, address_from_int
from repro.data.loader import group_into_blocks
from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic workload (defaults mirror the paper's facts)."""

    num_accounts: int = 10_000
    num_transactions: int = 60_000
    block_size: int = 150
    seed: int = 2022
    #: Zipf exponent of within-community account popularity.
    zipf_exponent: float = 1.1
    #: Fraction of transactions involving the single hyper-active account.
    hub_share: float = 0.11
    #: Fraction of accounts that form the hub's dedicated periphery —
    #: exchange-style deposit addresses that transact (almost) only with
    #: the hub.  Keeps the hub cluster dense but *light*, as in the real
    #: graph, instead of gluing unrelated communities together.
    hub_periphery_fraction: float = 0.15
    #: Probability that a hub transaction stays inside its periphery.
    hub_periphery_affinity: float = 0.95
    #: Number of latent account communities (0 = auto: ~1 per 75 accounts,
    #: so a default workload has many more communities than shards — as the
    #: real graph does).
    num_communities: int = 0
    #: Zipf exponent of community sizes/popularity.
    community_exponent: float = 0.6
    #: Probability that a transaction stays inside its community.
    community_affinity: float = 0.85
    #: Fraction of self-loop transactions.
    self_loop_rate: float = 0.01
    #: Fraction of multi-input/multi-output transactions ...
    multi_io_rate: float = 0.05
    #: ... and the maximum number of accounts such a transaction touches.
    multi_io_max: int = 5

    def __post_init__(self) -> None:
        if self.num_accounts < 2:
            raise ParameterError("need at least two accounts")
        if self.num_transactions < 1:
            raise ParameterError("need at least one transaction")
        if self.block_size < 1:
            raise ParameterError("block_size must be positive")
        if not 0.0 <= self.hub_share < 1.0:
            raise ParameterError("hub_share must be in [0, 1)")
        if not 0.0 <= self.community_affinity <= 1.0:
            raise ParameterError("community_affinity must be in [0, 1]")
        if not 0.0 <= self.self_loop_rate < 1.0:
            raise ParameterError("self_loop_rate must be in [0, 1)")
        if not 0.0 <= self.multi_io_rate < 1.0:
            raise ParameterError("multi_io_rate must be in [0, 1)")
        if self.multi_io_max < 3:
            raise ParameterError("multi_io_max must be at least 3")
        if not 0.0 <= self.hub_periphery_fraction < 0.9:
            raise ParameterError("hub_periphery_fraction must be in [0, 0.9)")
        if not 0.0 <= self.hub_periphery_affinity <= 1.0:
            raise ParameterError("hub_periphery_affinity must be in [0, 1]")

    def resolved_communities(self) -> int:
        if self.num_communities > 0:
            return self.num_communities
        return max(8, self.num_accounts // 75)


@dataclasses.dataclass(frozen=True)
class DatasetCard:
    """Summary statistics, the synthetic counterpart of Section VI-A."""

    num_transactions: int
    num_accounts: int
    top_account_share: float
    top10_account_share: float
    self_loop_ratio: float
    multi_io_ratio: float
    mean_accounts_per_tx: float


class _ZipfSampler:
    """Deterministic sampling from a Zipf-weighted finite population."""

    def __init__(self, population: Sequence[int], exponent: float) -> None:
        self.population = list(population)
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(self.population) + 1):
            total += rank ** (-exponent)
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        u = rng.random() * self._total
        idx = bisect.bisect_left(self._cumulative, u)
        if idx >= len(self.population):
            idx = len(self.population) - 1
        return self.population[idx]


class EthereumWorkloadGenerator:
    """Generates a deterministic Ethereum-like transaction stream."""

    def __init__(self, config: WorkloadConfig = WorkloadConfig()) -> None:
        self.config = config
        rng = random.Random(config.seed)
        n = config.num_accounts
        self.addresses: List[Address] = [address_from_int(i) for i in range(n)]
        self.hub: Address = self.addresses[0]

        # The tail of the address space is the hub's dedicated periphery;
        # only the "core" accounts participate in community traffic.
        self.core_count: int = max(2, n - int(n * config.hub_periphery_fraction))
        self.periphery_start: int = self.core_count

        # Assign core accounts to latent communities with Zipf-ish sizes;
        # periphery accounts nominally live in the hub's community.
        num_comms = config.resolved_communities()
        comm_sampler = _ZipfSampler(range(num_comms), config.community_exponent)
        self.community_of: List[int] = [
            comm_sampler.sample(rng) for _ in range(self.core_count)
        ]
        self.community_of.extend([self.community_of[0]] * (n - self.core_count))
        members: Dict[int, List[int]] = {c: [] for c in range(num_comms)}
        # The hub (account 0) is excluded from community sampling: all of
        # its traffic is generated by the dedicated hub branch, so its
        # transaction share stays at hub_share across scales.
        for account in range(1, self.core_count):
            members[self.community_of[account]].append(account)
        # Guarantee no empty community (re-seat one account deterministically).
        spare = itertools.cycle(range(1, self.core_count))  # hub never donated
        for c in range(num_comms):
            if not members[c]:
                donor = next(
                    a for a in spare if len(members[self.community_of[a]]) > 1
                )
                members[self.community_of[donor]].remove(donor)
                members[c].append(donor)
                self.community_of[donor] = c
        self.members = members
        self._member_samplers = {
            c: _ZipfSampler(m, config.zipf_exponent) for c, m in members.items()
        }
        self._community_sampler = _ZipfSampler(range(num_comms), config.community_exponent)
        self._rng = rng

    # ------------------------------------------------------------------
    def _pick_member(self, community: int, rng: random.Random) -> int:
        return self._member_samplers[community].sample(rng)

    def _pick_global(self, rng: random.Random) -> int:
        community = self._community_sampler.sample(rng)
        return self._pick_member(community, rng)

    def _one_transaction(self, rng: random.Random) -> Transaction:
        cfg = self.config
        roll = rng.random()
        if roll < cfg.self_loop_rate:
            account = self.addresses[self._pick_global(rng)]
            return Transaction(inputs=(account,), outputs=(account,))

        if rng.random() < cfg.hub_share:
            # The hyper-active account trades overwhelmingly with its
            # dedicated periphery (exchange deposit addresses) and
            # occasionally with arbitrary accounts — never preferentially
            # with other popular accounts.  This keeps the hub cluster
            # dense but light, which is what lets real-world partitions
            # bound the hub shard's extra load (paper Fig. 4).
            sender_idx = 0
            has_periphery = self.periphery_start < cfg.num_accounts
            if has_periphery and rng.random() < cfg.hub_periphery_affinity:
                receiver_idx = rng.randrange(self.periphery_start, cfg.num_accounts)
            else:
                receiver_idx = rng.randrange(1, cfg.num_accounts)
            community = self.community_of[receiver_idx]
        else:
            community = self._community_sampler.sample(rng)
            sender_idx = self._pick_member(community, rng)
            if rng.random() < cfg.community_affinity:
                receiver_idx = self._pick_member(community, rng)
            else:
                # Cross-community leak: a uniformly chosen foreign
                # community, popular member within it.
                foreign = rng.randrange(self.config.resolved_communities())
                receiver_idx = self._pick_member(foreign, rng)
        if receiver_idx == sender_idx:
            # Re-draw from a uniformly chosen community so collisions do
            # not funnel extra weight into the most popular community.
            foreign = rng.randrange(self.config.resolved_communities())
            receiver_idx = self._pick_member(foreign, rng)
            if receiver_idx == sender_idx:
                receiver_idx = (sender_idx + 1) % self.core_count

        outputs = [self.addresses[receiver_idx]]
        if rng.random() < cfg.multi_io_rate:
            extra = rng.randint(1, cfg.multi_io_max - 2)
            for _ in range(extra):
                outputs.append(self.addresses[self._pick_member(community, rng)])
        return Transaction(inputs=(self.addresses[sender_idx],), outputs=tuple(outputs))

    # ------------------------------------------------------------------
    def transactions(self) -> Iterator[Transaction]:
        """The full transaction stream, lazily."""
        rng = random.Random(self.config.seed + 1)
        for index in range(self.config.num_transactions):
            yield self._stream_transaction(index, rng)

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        """Hook for time-varying workloads: transaction at stream position
        ``index``.  The base generator is stationary, so the position is
        ignored; zoo generators override this to phase their traffic
        (spikes, waves, epochs) while reusing the stationary machinery."""
        return self._one_transaction(rng)

    def generate(self) -> List[Transaction]:
        """The full transaction stream, materialised."""
        return list(self.transactions())

    def blocks(self) -> Iterator[Block]:
        """The stream, regenerated on first use and chunked into linked blocks."""
        yield from chunk_blocks(self.transactions(), self.config.block_size)

    # ------------------------------------------------------------------
    def dataset_card(self, transactions: Optional[Sequence[Transaction]] = None) -> DatasetCard:
        """Summarise a generated stream (defaults to a fresh generation)."""
        txs = self.generate() if transactions is None else transactions
        return card_from_sets(account_sets(txs))


def account_sets(transactions: Sequence[Transaction]) -> List[Tuple[Address, ...]]:
    """Project transactions to sorted account tuples (metric/graph input)."""
    sets_: List[Tuple[Address, ...]] = []
    for tx in transactions:
        if len(tx.inputs) == 1 and len(tx.outputs) == 1:
            a, b = tx.inputs[0], tx.outputs[0]
            sets_.append((a,) if a == b else (a, b) if a < b else (b, a))
        else:
            sets_.append(tuple(sorted(tx.accounts)))
    return sets_


def chunk_blocks(transactions: Iterable[Transaction], block_size: int) -> List[Block]:
    """Chunk a transaction stream into linked blocks of ``block_size``
    transactions (the last one may be short)."""
    return group_into_blocks((i // block_size, tx) for i, tx in enumerate(transactions))


def card_from_sets(sets_: Sequence[Tuple[Address, ...]]) -> DatasetCard:
    """The :class:`DatasetCard` of a stream given as its account sets (a set
    of length 1 is a self-loop, one longer than 2 a multi-I/O transaction)."""
    total = len(sets_)
    sizes = [len(s) for s in sets_]
    counts = collections.Counter(itertools.chain.from_iterable(sets_))
    ranked = sorted(counts.values(), reverse=True)
    return DatasetCard(
        num_transactions=total,
        num_accounts=len(counts),
        top_account_share=(ranked[0] / total) if ranked else 0.0,
        top10_account_share=(sum(ranked[:10]) / total) if ranked else 0.0,
        self_loop_ratio=sizes.count(1) / total if total else 0.0,
        multi_io_ratio=sum(n > 2 for n in sizes) / total if total else 0.0,
        mean_accounts_per_tx=sum(sizes) / total if total else 0.0,
    )


# ======================================================================
# Workload zoo — named traffic topologies over the same account machinery
# ======================================================================
# Each generator below stresses one axis of the allocator that the base
# Ethereum-like workload does not: sudden load concentration (hotspot),
# star traffic (exchange_hub), unseen-account waves (mint_burst),
# mapping staleness (community_drift), and the absence of exploitable
# locality (adversarial).  All of them derive every draw from the one
# config seed — equal configs produce byte-identical streams — and all
# reuse the base generator's community/Zipf machinery, so scale, block
# chunking, dataset cards and determinism behave identically across the
# zoo.  ``docs/workloads.md`` documents each topology's traffic shape,
# stress axis and knobs.


class HotSpotWorkloadGenerator(EthereumWorkloadGenerator):
    """Flash crowd: one previously-quiet contract suddenly dominates.

    Outside the spike window the stream is exactly the base Ethereum
    workload.  Inside ``[spike_start, spike_end)`` (fractions of the
    stream), each transaction is, with probability ``spike_share``, a
    transfer from a random account to one fixed *hot* contract — a
    mid-tail core account that carried no special traffic before.  The
    stress axis is sudden load concentration: the allocator must detect
    the flash crowd and rebalance the hot shard mid-stream.
    """

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        *,
        spike_start: float = 0.4,
        spike_end: float = 0.7,
        spike_share: float = 0.5,
    ) -> None:
        if not 0.0 <= spike_start < spike_end <= 1.0:
            raise ParameterError(
                "spike window must satisfy 0 <= spike_start < spike_end <= 1, "
                f"got [{spike_start!r}, {spike_end!r})"
            )
        if not 0.0 <= spike_share < 1.0:
            raise ParameterError(f"spike_share must be in [0, 1), got {spike_share!r}")
        super().__init__(config)
        self.spike_start = spike_start
        self.spike_end = spike_end
        self.spike_share = spike_share
        #: The flash-crowd target: a mid-tail core account (never the
        #: hub, so the spike is genuinely *new* load concentration).
        self.hot_index: int = max(1, self.core_count // 2)
        self.hot: Address = self.addresses[self.hot_index]

    def in_spike(self, index: int) -> bool:
        n = self.config.num_transactions
        return self.spike_start * n <= index < self.spike_end * n

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        if self.in_spike(index) and rng.random() < self.spike_share:
            sender_idx = self._pick_global(rng)
            if sender_idx == self.hot_index:
                sender_idx = (self.hot_index + 1) % self.core_count or 1
            return Transaction(
                inputs=(self.addresses[sender_idx],), outputs=(self.hot,)
            )
        return self._one_transaction(rng)


class ExchangeHubWorkloadGenerator(EthereumWorkloadGenerator):
    """Star traffic: a few exchange hot wallets with dedicated peripheries.

    With probability ``hub_traffic_share`` a transaction is a deposit to
    (or withdrawal from) one of ``num_hubs`` exchange accounts, drawn
    Zipf so the first hub dominates; the partner is drawn from the hub's
    own periphery stripe (account index ≡ hub index mod ``num_hubs``).
    The rest of the stream is base community traffic.  The stress axis
    is workload balance under hyper-hubs: graph partitioners glue each
    star together and overload the hub shards (the paper's Fig. 4
    pathology, multiplied by ``num_hubs``).
    """

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        *,
        num_hubs: int = 4,
        hub_traffic_share: float = 0.65,
    ) -> None:
        if num_hubs < 1:
            raise ParameterError(f"num_hubs must be positive, got {num_hubs!r}")
        if not 0.0 <= hub_traffic_share < 1.0:
            raise ParameterError(
                f"hub_traffic_share must be in [0, 1), got {hub_traffic_share!r}"
            )
        super().__init__(config)
        self.num_hubs = min(num_hubs, max(1, config.num_accounts // 2 - 1))
        self.hub_traffic_share = hub_traffic_share
        self.hubs: List[Address] = [self.addresses[h] for h in range(self.num_hubs)]
        self._hub_sampler = _ZipfSampler(range(self.num_hubs), 1.0)

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        if rng.random() < self.hub_traffic_share:
            h = self._hub_sampler.sample(rng)
            # Periphery stripe of hub h: indices ≡ h (mod num_hubs),
            # excluding the hub block itself.
            p = rng.randrange(self.num_hubs, self.config.num_accounts)
            p -= (p - h) % self.num_hubs
            if p < self.num_hubs:
                p += self.num_hubs
            partner = self.addresses[p]
            if rng.random() < 0.5:
                return Transaction(inputs=(partner,), outputs=(self.hubs[h],))
            return Transaction(inputs=(self.hubs[h],), outputs=(partner,))
        return self._one_transaction(rng)


class MintBurstWorkloadGenerator(EthereumWorkloadGenerator):
    """Mint-burst waves: bursts of brand-new accounts hitting one contract.

    The stream is divided into ``num_waves`` equal periods; the first
    ``wave_fraction`` of each period is a burst in which every
    transaction is a mint — a *never-seen* account (addresses beyond the
    configured account space, one per stream position, so repetition of
    the stream is byte-identical) paying one fixed mint contract.  The
    stress axis is unseen-account placement: fallback routing carries
    each newcomer until the allocator's next scheduled update, and the
    mint contract's shard rides a recurring load wave.
    """

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        *,
        num_waves: int = 4,
        wave_fraction: float = 0.2,
    ) -> None:
        if num_waves < 1:
            raise ParameterError(f"num_waves must be positive, got {num_waves!r}")
        if not 0.0 < wave_fraction < 1.0:
            raise ParameterError(
                f"wave_fraction must be in (0, 1), got {wave_fraction!r}"
            )
        super().__init__(config)
        self.num_waves = num_waves
        self.wave_fraction = wave_fraction
        #: The mint contract sits just beyond the base account space: no
        #: community owns it, so its placement is entirely the
        #: allocator's doing.
        self.mint: Address = address_from_int(config.num_accounts)
        self._period = max(1, config.num_transactions // num_waves)

    def in_burst(self, index: int) -> bool:
        return (index % self._period) < self.wave_fraction * self._period

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        if self.in_burst(index):
            # One fresh account per burst position — a pure function of
            # the stream index, so re-iteration is byte-identical.
            newcomer = address_from_int(self.config.num_accounts + 1 + index)
            return Transaction(inputs=(newcomer,), outputs=(self.mint,))
        return self._one_transaction(rng)


class CommunityDriftWorkloadGenerator(EthereumWorkloadGenerator):
    """Community drift/churn: cluster membership rotates over the stream.

    The stream is divided into ``epochs`` equal spans.  At each epoch
    boundary a ``churn`` fraction of core accounts is deterministically
    re-seated into a different community (communities are kept
    non-empty); traffic within an epoch follows that epoch's assignment
    with the base generator's affinities.  The stress axis is mapping
    staleness: an allocation computed on epoch-``e`` traffic bleeds
    cross-shard volume in epoch ``e+1``, so the τ₂ refresh cadence — not
    one-shot quality — decides throughput.
    """

    def __init__(
        self,
        config: WorkloadConfig = WorkloadConfig(),
        *,
        epochs: int = 4,
        churn: float = 0.3,
    ) -> None:
        if epochs < 1:
            raise ParameterError(f"epochs must be positive, got {epochs!r}")
        if not 0.0 <= churn <= 1.0:
            raise ParameterError(f"churn must be in [0, 1], got {churn!r}")
        super().__init__(config)
        self.epochs = epochs
        self.churn = churn
        rng = random.Random(config.seed + 7)
        num_comms = config.resolved_communities()
        community_of = list(self.community_of)
        members = {c: list(m) for c, m in self.members.items()}
        views = [
            (
                list(community_of),
                {c: list(m) for c, m in members.items()},
                dict(self._member_samplers),
            )
        ]
        for _ in range(1, epochs):
            movers = rng.sample(
                range(1, self.core_count), int(self.churn * (self.core_count - 1))
            )
            for account in movers:
                old = community_of[account]
                if len(members[old]) <= 1:
                    continue  # never empty a community
                new = rng.randrange(num_comms)
                if new == old:
                    new = (new + 1) % num_comms
                members[old].remove(account)
                members[new].append(account)
                community_of[account] = new
            samplers = {
                c: _ZipfSampler(m, config.zipf_exponent) for c, m in members.items()
            }
            views.append(
                (
                    list(community_of),
                    {c: list(m) for c, m in members.items()},
                    samplers,
                )
            )
        self._epoch_views = views
        self._installed_epoch = 0

    def epoch_of(self, index: int) -> int:
        n = self.config.num_transactions
        return min(self.epochs - 1, index * self.epochs // n)

    def community_view(self, epoch: int) -> List[int]:
        """The community assignment in force during ``epoch``."""
        return list(self._epoch_views[epoch][0])

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        epoch = self.epoch_of(index)
        if epoch != self._installed_epoch:
            # Swap the epoch's assignment in; idempotent by epoch number,
            # so re-iterating the stream from index 0 re-installs epoch 0
            # and repetition stays byte-identical.
            self.community_of, self.members, self._member_samplers = (
                self._epoch_views[epoch]
            )
            self._installed_epoch = epoch
        return self._one_transaction(rng)


class AdversarialWorkloadGenerator(EthereumWorkloadGenerator):
    """Adversarial cross-shard traffic: every transfer crosses communities.

    Senders are drawn with the base Zipf popularity, but the receiver is
    always a member of a *different* community, uniformly chosen — the
    planted cluster structure exists in the account population but never
    in the edges.  The stress axis is the absence of exploitable
    locality: no allocation can co-locate this traffic, so cross-shard
    ratios stay high for every method and the interesting question is
    whether a community-exploiting allocator degrades *gracefully*
    (it should do no worse than hash, not collapse).
    """

    def __init__(self, config: WorkloadConfig = WorkloadConfig()) -> None:
        super().__init__(config)

    def _stream_transaction(self, index: int, rng: random.Random) -> Transaction:
        num_comms = self.config.resolved_communities()
        community = self._community_sampler.sample(rng)
        sender_idx = self._pick_member(community, rng)
        foreign = (community + 1 + rng.randrange(max(1, num_comms - 1))) % num_comms
        receiver_idx = self._pick_member(foreign, rng)
        if receiver_idx == sender_idx:  # distinct communities -> distinct
            receiver_idx = (receiver_idx + 1) % self.core_count or 1
        return Transaction(
            inputs=(self.addresses[sender_idx],),
            outputs=(self.addresses[receiver_idx],),
        )


# ----------------------------------------------------------------------
# Workload registry — topologies by name, the matrix harness's seam
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload topology.

    ``factory`` builds a generator from ``(config, **knobs)``; the
    generator must expose the :class:`EthereumWorkloadGenerator` surface
    (``transactions()``/``generate()``/``blocks()``/``dataset_card()``).
    """

    name: str
    factory: Callable[..., EthereumWorkloadGenerator]
    description: str = ""
    #: Which failure mode of the allocator this topology stresses.
    stress_axis: str = ""


_WORKLOADS: Dict[str, WorkloadEntry] = {}


def register_workload(
    name: str,
    factory,
    *,
    description: str = "",
    stress_axis: str = "",
    overwrite: bool = False,
) -> WorkloadEntry:
    """Register a workload topology under ``name`` (matrix-spec vocabulary)."""
    if name in _WORKLOADS and not overwrite:
        raise ParameterError(
            f"workload {name!r} already registered; pass overwrite=True to replace"
        )
    entry = WorkloadEntry(
        name=name, factory=factory, description=description, stress_axis=stress_axis
    )
    _WORKLOADS[name] = entry
    return entry


def workload_names() -> Tuple[str, ...]:
    """Names of every registered workload topology, sorted."""
    return tuple(sorted(_WORKLOADS))


def get_workload_entry(name: str) -> WorkloadEntry:
    """Resolve a topology name to its registry entry."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise ParameterError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None


def make_workload_generator(
    name: str, config: WorkloadConfig = None, **knobs
) -> EthereumWorkloadGenerator:
    """Build a registered workload generator by name.

    ``config`` defaults to :class:`WorkloadConfig`'s defaults; ``knobs``
    pass through to the topology's factory (each topology documents its
    own — see ``docs/workloads.md``).
    """
    entry = get_workload_entry(name)
    try:
        return entry.factory(config if config is not None else WorkloadConfig(), **knobs)
    except TypeError as exc:
        raise ParameterError(f"bad knobs for workload {name!r}: {exc}") from None


def _ethereum_factory(config: WorkloadConfig, **knobs) -> EthereumWorkloadGenerator:
    if knobs:
        raise ParameterError(
            f"the ethereum workload takes no extra knobs, got {sorted(knobs)}"
        )
    return EthereumWorkloadGenerator(config)


register_workload(
    "ethereum",
    _ethereum_factory,
    description="Ethereum-like baseline: Zipf accounts, planted communities, "
    "one hyper-active hub (paper Section VI-A)",
    stress_axis="none (the reference workload every figure uses)",
)
register_workload(
    "hotspot",
    HotSpotWorkloadGenerator,
    description="flash crowd: one mid-tail contract takes spike_share of "
    "traffic inside a spike window",
    stress_axis="sudden load concentration / mid-stream rebalancing",
)
register_workload(
    "exchange_hub",
    ExchangeHubWorkloadGenerator,
    description="star traffic: num_hubs exchange wallets with dedicated "
    "periphery stripes carry hub_traffic_share of volume",
    stress_axis="workload balance under hyper-hubs (Fig. 4 pathology)",
)
register_workload(
    "mint_burst",
    MintBurstWorkloadGenerator,
    description="periodic waves of never-seen accounts paying one mint "
    "contract",
    stress_axis="unseen-account fallback routing and placement latency",
)
register_workload(
    "community_drift",
    CommunityDriftWorkloadGenerator,
    description="cluster membership re-seats by churn every epoch; traffic "
    "follows the epoch's assignment",
    stress_axis="mapping staleness / value of the tau2 refresh cadence",
)
register_workload(
    "adversarial",
    AdversarialWorkloadGenerator,
    description="every transfer crosses communities: locality exists in the "
    "population but never in the edges",
    stress_axis="graceful degradation when there is nothing to exploit",
)
