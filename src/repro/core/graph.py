"""The transaction graph of Definition 2 (paper Section III-C).

Accounts are nodes; each transaction ``Tx`` touching the account set
``A_Tx`` contributes a total weight of 1, split uniformly over the
``π(Tx) = C(|A_Tx|, 2)`` unordered account pairs it induces.  A transaction
whose accounts collapse to a single address (e.g. an Ethereum
self-replacement transaction) becomes a *self-loop* of weight 1.

The graph is undirected and weighted, stored as a dict-of-dicts adjacency
structure optimised for *ingest*: accumulating a new transaction's pair
weights is a handful of dict updates.

Ingest/freeze lifecycle
-----------------------
The allocation hot paths (Louvain initialisation, G-TxAllo optimisation
sweeps) do not run on the dict form — scanning string-keyed dicts per node
per sweep pays Python string hashing and per-node dict construction.  They
run on the *frozen* form instead: :meth:`TransactionGraph.freeze` interns
account strings to dense integer ids and lowers each adjacency row into
a list of ``(id, weight)`` tuples (:class:`repro.core.csr.CSRGraph`),
which the flat-array sweep engine (:mod:`repro.core.engine`) consumes.
The two forms are linked by a version counter: every mutation
(``add_node`` / ``add_edge`` / ``add_transaction``) bumps the version at
least once, only equality between versions is meaningful, and
``freeze()`` returns a cached snapshot while the version is unchanged, so
repeated allocator runs over a quiescent graph freeze exactly once.  The frozen snapshot preserves the dict rows'
iteration order, which keeps every float accumulation in the fast engine
bit-identical to the reference dict-based scans.

A snapshot of a changed graph is always one full
``CSRGraph.from_graph`` lowering.

Determinism
-----------
``nodes()`` and ``neighbours()`` iterate in *insertion order* which, for a
ledger replay, is the chronological account-appearance order — a canonical
order every miner can reproduce (paper Section IV-A).  ``nodes_sorted()``
gives an explicitly sorted order when insertion order is not meaningful.
The frozen form assigns integer ids in that *sorted* order, the order the
allocators sweep.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError, TransactionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.csr import CSRGraph

#: Type alias for account identifiers.  Any hashable, totally-orderable value
#: works; the chain substrate uses hex address strings.
Node = str

def pair_count(num_accounts: int) -> int:
    """``π(Tx)``: number of one-to-one edges induced by a transaction.

    ``π(Tx) = C(|A_Tx|, 2)`` (paper Section III-C).  A single-account
    transaction induces one self-loop, so ``pair_count(1) == 1`` by
    convention (the whole unit weight lands on the loop).
    """
    if num_accounts < 1:
        raise TransactionError(f"a transaction must touch at least one account, got {num_accounts}")
    if num_accounts == 1:
        return 1
    return math.comb(num_accounts, 2)


class TransactionGraph:
    """Undirected weighted multigraph-as-simple-graph with self-loops.

    Weights accumulate: adding the same account pair twice sums the edge
    weight, exactly as Definition 2 sums over all transactions involving
    both endpoints.
    """

    __slots__ = (
        "_adj",
        "_total_weight",
        "_num_edges",
        "_num_transactions",
        "_version",
        "_frozen",
        "_freeze_counts",
    )

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # Total edge weight, counting each unordered pair once and each
        # self-loop once.  Equals the number of transactions ingested via
        # add_transaction() because each transaction distributes weight 1.
        self._total_weight: float = 0.0
        self._num_edges: int = 0
        self._num_transactions: int = 0
        # Mutation counter + cached (version, CSRGraph) frozen snapshot.
        self._version: int = 0
        self._frozen: Optional[Tuple[int, "CSRGraph"]] = None
        # "delta" is always 0; perfbench/tracing.py still reads it.
        self._freeze_counts: Dict[str, int] = {"full": 0, "delta": 0, "cached": 0}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Ensure ``v`` exists (isolated nodes are permitted)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._version += 1

    def add_edge(self, u: Node, v: Node, weight: float) -> None:
        """Accumulate ``weight`` on the undirected edge ``{u, v}``.

        ``u == v`` creates/updates a self-loop.  Weights must be positive;
        zero-weight edges are a modelling error upstream.
        """
        if weight <= 0:
            raise GraphError(f"edge weight must be positive, got {weight!r} for {{{u!r}, {v!r}}}")
        self.add_node(u)
        self.add_node(v)
        row = self._adj[u]
        if v in row:
            row[v] += weight
            if u != v:
                self._adj[v][u] += weight
        else:
            row[v] = weight
            if u != v:
                self._adj[v][u] = weight
            self._num_edges += 1
        self._total_weight += weight
        self._version += 1

    def add_transaction(self, accounts: Iterable[Node]) -> None:
        """Ingest one transaction per Definition 2.

        ``accounts`` is the (possibly repeating) union of the transaction's
        input and output accounts; duplicates are collapsed, as the set
        ``A_Tx`` in the paper is a set.
        """
        adj = self._adj
        if type(accounts) is tuple and len(accounts) == 2 and accounts[0] != accounts[1]:
            # The common two-account transfer: exactly add_edge(u, v, 1.0)
            # with u < v, one version bump for the whole transaction.
            u, v = accounts if accounts[0] < accounts[1] else (accounts[1], accounts[0])
            # An isolated node's row is falsy; setdefault then returns it.
            row_u = adj.get(u) or adj.setdefault(u, {})
            row_v = adj.get(v) or adj.setdefault(v, {})
            if v in row_u:
                row_u[v] += 1.0
                row_v[u] += 1.0
            else:
                row_u[v] = row_v[u] = 1.0
                self._num_edges += 1
            self._total_weight += 1.0
            self._num_transactions += 1
            self._version += 1
            return
        unique: List[Node] = sorted(set(accounts))
        if not unique:
            raise TransactionError("a transaction must touch at least one account")
        n = len(unique)
        share = 1.0 / pair_count(n)
        # add_edge(u, v, share) per pair, inlined: same node and row order.
        for i, u in enumerate(unique):
            row = adj.get(u) or adj.setdefault(u, {})
            for v in unique[i + 1 :] if n > 1 else unique:
                if v in row:
                    row[v] += share
                    if u != v:
                        adj[v][u] += share
                else:
                    row[v] = share
                    if u != v:
                        adj.setdefault(v, {})[u] = share
                    self._num_edges += 1
                self._total_weight += share
        self._num_transactions += 1
        self._version += 1

    def add_transactions(self, transactions: Iterable[Iterable[Node]]) -> None:
        """Bulk :meth:`add_transaction`."""
        for accounts in transactions:
            self.add_transaction(accounts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of accounts seen so far."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges (self-loops count once)."""
        return self._num_edges

    @property
    def num_transactions(self) -> int:
        """Number of transactions ingested via :meth:`add_transaction`."""
        return self._num_transactions

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (pairs once, loops once).

        For a graph built purely with :meth:`add_transaction` this equals
        the transaction count, because every transaction spreads exactly
        one unit of weight.
        """
        return self._total_weight

    @property
    def version(self) -> int:
        """Mutation counter: bumped at least once by every mutating call
        (``add_transaction`` bumps it once per transaction).  Only
        equality is meaningful: equal versions of one graph mean equal
        content; the freeze cache and the controller's idle-refresh
        reuse both key on it."""
        return self._version

    def nodes(self) -> Iterator[Node]:
        """Nodes in insertion (chronological-appearance) order."""
        return iter(self._adj)

    def nodes_sorted(self) -> List[Node]:
        """Nodes in ascending identifier order (a canonical order)."""
        return sorted(self._adj)

    def neighbours(self, v: Node) -> Dict[Node, float]:
        """Adjacency row of ``v`` (includes the self-loop if present).

        The returned mapping is *live*; callers must not mutate it.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of ``{u, v}``; 0.0 if absent."""
        row = self._adj.get(u)
        if row is None:
            return 0.0
        return row.get(v, 0.0)

    def self_loop(self, v: Node) -> float:
        """``w{v, v}`` — the self-loop weight of ``v`` (0.0 if none)."""
        return self.edge_weight(v, v)

    def external_strength(self, v: Node) -> float:
        """``w{v, V/v}`` — total weight from ``v`` to *other* nodes.

        Excludes the self-loop; this is the quantity the paper's throughput
        deltas use (Section V-B).
        """
        row = self.neighbours(v)
        loop = row.get(v, 0.0)
        return self.strength(v) - loop

    def strength(self, v: Node) -> float:
        """Total incident weight of ``v``: external strength + self-loop."""
        # Left to right, never sum(): it is compensated from Python 3.12.
        total = 0.0
        for w in self.neighbours(v).values():
            total += w
        return total

    def degree(self, v: Node) -> int:
        """Number of distinct neighbours of ``v`` (self counts if looped)."""
        return len(self.neighbours(v))

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Yield each undirected edge exactly once as ``(u, v, w)``.

        Self-loops are yielded as ``(v, v, w)``.  Pair edges are oriented
        with the earlier-*inserted* endpoint first: the outer loop walks
        nodes in insertion order and ``seen`` holds exactly the nodes
        already walked, so a pair ``{u, v}`` is emitted at its
        earlier-inserted endpoint (the later one is still missing from
        ``seen``) and skipped at the later one.  A regression test pins
        this orientation; the frozen CSR form replays this walk through
        ``CSRGraph.insertion_order`` to rebuild per-shard caches
        bit-identically (see :class:`repro.core.csr.CSRGraph`).
        """
        seen: set = set()
        for u, row in self._adj.items():
            for v, w in row.items():
                if u == v:
                    yield u, v, w
                elif v not in seen:
                    yield u, v, w
            seen.add(u)

    # ------------------------------------------------------------------
    # Frozen (compiled) view
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRGraph":
        """Compile the graph into its flat CSR form for the sweep engine.

        Returns a :class:`repro.core.csr.CSRGraph` snapshot: account
        strings interned to dense integer ids (ascending identifier
        order), each adjacency row lowered into one list of
        ``(neighbour_id, weight)`` tuples in dict order, plus the
        loop-free rows and per-node self-loop and external-strength
        vectors.  The snapshot is cached
        against an internal mutation counter — freezing an unchanged
        graph returns the same object, so back-to-back allocator runs
        (e.g. a (k, eta) parameter sweep) pay the O(N log N + E) lowering once.
        A changed graph is lowered in full again.

        The snapshot is immutable and detached: mutating the graph
        afterwards does not touch it, it only invalidates the cache.
        """
        from repro.core.csr import CSRGraph

        frozen = self._frozen
        if frozen is not None and frozen[0] == self._version:
            self._freeze_counts["cached"] += 1
            return frozen[1]
        csr = CSRGraph.from_graph(self)
        self._freeze_counts["full"] += 1
        self._frozen = (self._version, csr)
        return csr

    @property
    def freeze_stats(self) -> Dict[str, int]:
        """Snapshot-production counters: ``{"full", "delta", "cached"}``.

        ``full`` counts :meth:`CSRGraph.from_graph` lowerings and
        ``cached`` hits on an unchanged snapshot; ``delta`` is always 0.
        """
        return dict(self._freeze_counts)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subgraph_weight(self, nodes: Iterable[Node]) -> float:
        """Total weight internal to ``nodes`` (pairs once, loops once)."""
        node_set = set(nodes)
        total = 0.0
        for v in node_set:
            if v not in self._adj:
                continue
            for u, w in self._adj[v].items():
                if u == v:
                    total += w
                elif u in node_set and u > v:
                    total += w
        return total

    def copy(self) -> "TransactionGraph":
        """Deep copy preserving insertion order and all counters.

        The clone starts with a cold freeze cache.
        """
        clone = TransactionGraph()
        clone._adj = {v: dict(row) for v, row in self._adj.items()}
        clone._total_weight = self._total_weight
        clone._num_edges = self._num_edges
        clone._num_transactions = self._num_transactions
        return clone

    def degree_histogram(self, bins: int = 10) -> List[Tuple[int, int]]:
        """Coarse log-ish histogram of node degrees, for dataset cards.

        Returns ``(upper_bound, count)`` pairs with geometric bin edges.
        """
        if not self._adj:
            return []
        degrees = sorted(len(row) for row in self._adj.values())
        top = degrees[-1]
        edges_: List[int] = []
        bound = 1
        while bound < top and len(edges_) < bins - 1:
            edges_.append(bound)
            bound *= 4
        edges_.append(top)
        result = []
        idx = 0
        for bound in edges_:
            count = 0
            while idx < len(degrees) and degrees[idx] <= bound:
                count += 1
                idx += 1
            result.append((bound, count))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransactionGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"transactions={self.num_transactions}, weight={self.total_weight:.2f})"
        )
