"""Performance metrics of Section III-B, at transaction and graph level.

The paper defines its metrics twice: once on the blockchain (per
transaction, Section III-B) and once converted onto the transaction graph
(Section III-C).  The optimisation runs on the graph; the *evaluation*
quantities reported in Figures 2-7 are the blockchain-level ones.  This
module implements both so they can be cross-checked.

Implemented quantities:

* ``μ(Tx)``   — number of shards a transaction touches;
* ``γ``       — cross-shard transaction ratio;
* ``σ_i``     — per-shard workload (intra tx cost 1, cross tx cost ``η``);
* ``ρ``       — workload balance: population standard deviation of ``σ_i``
  normalised by capacity ``λ`` (Eq. 1) — normalisation makes the metric
  scale-free, matching the magnitudes of Fig. 3;
* ``Λ``       — system throughput with per-shard capacity capping
  (Eqs. 2-3), where a cross-shard transaction counts ``1/μ(Tx)`` toward
  each involved shard;
* ``ζ``       — average confirmation latency in block units (Eq. 4).  The
  paper's closed form is the integral ``∫₀^σ̂ ⌈x⌉ dx / σ̂``; we evaluate the
  integral exactly, which also fixes the closed form's edge case at
  integer ``σ̂`` (the printed formula yields ``n²/2`` instead of
  ``n(n+1)/2`` there);
* worst-case latency — ``⌈ max_i σ̂_i ⌉``, the delay of the last
  transaction in the most overloaded shard (Fig. 7).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.allocation import Allocation, capped_throughput
from repro.core.graph import Node, TransactionGraph
from repro.core.params import TxAlloParams
from repro.errors import AllocationError

#: A transaction, for metric purposes, is just its account set.
AccountSet = Sequence[Node]
Mapping = Dict[Node, int]


def _as_mapping(allocation) -> Mapping:
    """Accept either an :class:`Allocation` or a plain dict."""
    if isinstance(allocation, Allocation):
        return allocation.mapping()
    return allocation


# ----------------------------------------------------------------------
# Per-transaction quantities
# ----------------------------------------------------------------------
def involved_shards(accounts: AccountSet, mapping: Mapping) -> Set[int]:
    """The set of shards maintaining at least one account of the tx."""
    try:
        return {mapping[a] for a in accounts}
    except KeyError as exc:
        raise AllocationError(f"account {exc.args[0]!r} is not allocated") from None


def mu(accounts: AccountSet, mapping: Mapping) -> int:
    """``μ(Tx)``: the number of shards processing this transaction."""
    return len(involved_shards(accounts, mapping))


def is_cross_shard(accounts: AccountSet, mapping: Mapping) -> bool:
    """Whether the transaction is cross-shard (``μ(Tx) > 1``)."""
    return mu(accounts, mapping) > 1


# ----------------------------------------------------------------------
# Aggregate report
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MetricsReport:
    """All Section III-B metrics for one allocation on one workload."""

    num_transactions: int
    num_cross_shard: int
    cross_shard_ratio: float
    shard_workloads: Tuple[float, ...]
    workload_balance: float
    throughput: float
    normalized_throughput: float
    average_latency: float
    worst_case_latency: float

    @property
    def normalized_workloads(self) -> Tuple[float, ...]:
        """``σ_i / λ`` is recoverable from throughput normalisation inputs."""
        raise AttributeError(
            "use evaluate_allocation(...).shard_workloads together with params.lam"
        )


def evaluate_allocation(
    transactions: Iterable[AccountSet],
    allocation,
    params: TxAlloParams,
) -> MetricsReport:
    """Single-pass, transaction-level evaluation of an allocation.

    ``transactions`` yields account collections (the union ``A_Tx``);
    ``allocation`` is an :class:`Allocation` or an account→shard dict.
    """
    mapping = _as_mapping(allocation)
    k, eta, lam = params.k, params.eta, params.lam
    sigma = [0.0] * k
    lam_hat = [0.0] * k
    total = 0
    cross = 0
    # Two-account transactions skip building the shard set.  A
    # transaction adds to each of its shards exactly once, so every
    # shard's sums see the same additions in the same order on either path.
    try:
        for accounts in transactions:
            total += 1
            if len(accounts) == 2:
                a, b = accounts
                i = mapping[a]
                j = mapping[b]
                if i == j:
                    sigma[i] += 1.0
                    lam_hat[i] += 1.0
                else:
                    cross += 1
                    sigma[i] += eta
                    lam_hat[i] += 0.5
                    sigma[j] += eta
                    lam_hat[j] += 0.5
                continue
            shards = {mapping[a] for a in accounts}
            m = len(shards)
            if m == 1:
                (i,) = shards
                sigma[i] += 1.0
                lam_hat[i] += 1.0
            else:
                cross += 1
                share = 1.0 / m
                for i in shards:
                    sigma[i] += eta
                    lam_hat[i] += share
    except KeyError as exc:
        raise AllocationError(f"account {exc.args[0]!r} is not allocated") from None
    throughput = sum(
        capped_throughput(s, lh, lam) for s, lh in zip(sigma, lam_hat)
    )
    return MetricsReport(
        num_transactions=total,
        num_cross_shard=cross,
        cross_shard_ratio=(cross / total) if total else 0.0,
        shard_workloads=tuple(sigma),
        workload_balance=workload_balance(sigma, lam),
        throughput=throughput,
        normalized_throughput=throughput / lam if lam not in (0.0, math.inf) else 0.0,
        average_latency=average_latency(sigma, lam),
        worst_case_latency=worst_case_latency(sigma, lam),
    )


# ----------------------------------------------------------------------
# Workload balance (Eq. 1)
# ----------------------------------------------------------------------
def workload_balance(sigmas: Sequence[float], lam: float = 1.0) -> float:
    """``ρ``: population standard deviation of per-shard workloads.

    Normalised by the capacity ``λ`` so the value is comparable across
    shard counts, matching the scale of the paper's Fig. 3 (pass
    ``lam=1.0`` for the raw deviation).
    """
    k = len(sigmas)
    if k == 0:
        return 0.0
    mean = sum(sigmas) / k
    var = sum((s - mean) ** 2 for s in sigmas) / k
    dev = math.sqrt(var)
    if lam in (0.0, math.inf):
        return dev
    return dev / lam


# ----------------------------------------------------------------------
# Latency (Eq. 4)
# ----------------------------------------------------------------------
def shard_latency(sigma: float, lam: float) -> float:
    """``ζ_i``: average confirmation latency of one shard, in blocks.

    Evaluates ``∫₀^σ̂ ⌈x⌉ dx / σ̂`` exactly for ``σ̂ = σ_i / λ``.  An empty
    shard confirms instantly within its block: latency 1.
    """
    if lam <= 0:
        raise AllocationError(f"capacity lam must be positive, got {lam!r}")
    if sigma <= 0:
        return 1.0
    norm = sigma / lam
    if norm <= 1.0:
        return 1.0
    whole = math.floor(norm)
    integral = whole * (whole + 1) / 2.0 + (norm - whole) * math.ceil(norm)
    return integral / norm


def average_latency(sigmas: Sequence[float], lam: float) -> float:
    """``ζ``: mean of the per-shard latencies (paper Section III-B)."""
    if not sigmas:
        return 0.0
    return sum(shard_latency(s, lam) for s in sigmas) / len(sigmas)


def worst_case_latency(sigmas: Sequence[float], lam: float) -> float:
    """Latency of the last transaction in the most overloaded shard.

    ``⌈ max_i σ_i / λ ⌉`` blocks, and at least 1 for a non-empty system.
    """
    if lam <= 0:
        raise AllocationError(f"capacity lam must be positive, got {lam!r}")
    if not sigmas:
        return 0.0
    worst = max(sigmas)
    if worst <= 0:
        return 1.0
    return float(math.ceil(worst / lam))


# ----------------------------------------------------------------------
# Graph-level counterparts (Section III-C)
# ----------------------------------------------------------------------
def graph_shard_workloads(
    graph: TransactionGraph,
    allocation,
    params: TxAlloParams,
) -> List[float]:
    """``σ_i`` on the transaction graph (Eq. 5)."""
    mapping = _as_mapping(allocation)
    k, eta = params.k, params.eta
    sigma = [0.0] * k
    for u, v, w in graph.edges():
        iu = mapping[u]
        if u == v:
            sigma[iu] += w
            continue
        iv = mapping[v]
        if iu == iv:
            sigma[iu] += w
        else:
            sigma[iu] += eta * w
            sigma[iv] += eta * w
    return sigma


def graph_cross_shard_ratio(graph: TransactionGraph, allocation) -> float:
    """``γ`` on the graph: inter-community weight over total weight."""
    mapping = _as_mapping(allocation)
    total = 0.0
    inter = 0.0
    for u, v, w in graph.edges():
        total += w
        if u != v and mapping[u] != mapping[v]:
            inter += w
    return inter / total if total else 0.0


def graph_throughput(
    graph: TransactionGraph,
    allocation,
    params: TxAlloParams,
) -> float:
    """``Λ`` on the graph: intra weight + half of each side's cut, capped."""
    mapping = _as_mapping(allocation)
    k, eta, lam = params.k, params.eta, params.lam
    sigma = [0.0] * k
    lam_hat = [0.0] * k
    for u, v, w in graph.edges():
        iu = mapping[u]
        if u == v:
            sigma[iu] += w
            lam_hat[iu] += w
            continue
        iv = mapping[v]
        if iu == iv:
            sigma[iu] += w
            lam_hat[iu] += w
        else:
            sigma[iu] += eta * w
            sigma[iv] += eta * w
            lam_hat[iu] += w / 2.0
            lam_hat[iv] += w / 2.0
    return sum(capped_throughput(s, lh, lam) for s, lh in zip(sigma, lam_hat))
