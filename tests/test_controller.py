"""Tests for the τ₁/τ₂ dynamic controller."""


import pytest

from repro.core import controller as controller_module
from repro.core.controller import TxAlloController
from repro.core.graph import TransactionGraph
from repro.core.gtxallo import g_txallo
from repro.core.params import TxAlloParams
from repro.data.synthetic import EthereumWorkloadGenerator, WorkloadConfig


def block_stream(num_blocks=12, block_size=30, seed=9):
    config = WorkloadConfig(
        num_accounts=400,
        num_transactions=num_blocks * block_size,
        block_size=block_size,
        seed=seed,
    )
    gen = EthereumWorkloadGenerator(config)
    return [[tuple(tx.accounts) for tx in block] for block in gen.blocks()]


class TestScheduling:
    def test_initial_global_run_recorded(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.events[0].kind == "global"

    def test_adaptive_fires_every_tau1(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=100)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(block) for block in block_stream(8)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 4
        assert all(e.kind == "adaptive" for e in fired)

    def test_global_fires_every_tau2_and_wins_ties(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=4)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(block) for block in block_stream(8)]
        fired = [e for e in events if e is not None]
        kinds = [e.kind for e in fired]
        # Blocks 2,6 -> adaptive; blocks 4,8 -> global (tau2 divides them).
        assert kinds == ["adaptive", "global", "adaptive", "global"]

    def test_no_update_between_periods(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        assert controller.observe_block([("a", "c")]) is None

    def test_event_views(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=1, tau2=3)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(6):
            controller.observe_block(block)
        assert len(controller.global_events) >= 2  # initial + scheduled
        assert len(controller.adaptive_events) >= 3


class TestStateIntegrity:
    def test_allocation_complete_after_stream(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(12):
            controller.observe_block(block)
        controller.force_adaptive()  # flush the touched set
        controller.allocation.validate()

    def test_force_global_resets_touched(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(3):
            controller.observe_block(block)
        event = controller.force_global()
        assert event.kind == "global"
        controller.allocation.validate()

    def test_block_height_advances(self):
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        blocks = block_stream(4)
        for block in blocks:
            controller.observe_block(block)
        assert controller.block_height == 4

    def test_deterministic_across_controllers(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        mappings = []
        for _ in range(2):
            controller = TxAlloController(params, seed_transactions=[("a", "b")])
            for block in block_stream(10):
                controller.observe_block(block)
            controller.force_adaptive()
            mappings.append(controller.allocation.mapping())
        assert mappings[0] == mappings[1]

    def test_hash_order_independent_ingest(self):
        """Two controllers fed permuted, duplicate-laden account lists
        must produce identical caches *float for float*: observe_block
        ingests in sorted deduplicated order, so the allocation's
        accumulations never depend on set iteration order."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=6)
        blocks = block_stream(10)
        import random

        rng = random.Random(42)
        controllers = []
        for permute in (False, True):
            controller = TxAlloController(params, seed_transactions=[("a", "b")])
            for block in blocks:
                if permute:
                    block = [
                        tuple(rng.sample(list(accs) + [accs[0]], len(accs) + 1))
                        for accs in block
                    ]
                controller.observe_block(block)
            controller.force_adaptive()
            controllers.append(controller)
        first, second = controllers
        assert first.allocation.mapping() == second.allocation.mapping()
        assert first.allocation.sigma == second.allocation.sigma      # exact
        assert first.allocation.lam_hat == second.allocation.lam_hat  # exact

    def test_one_full_freeze_per_refresh_and_none_in_the_tau1_loop(self):
        """Each scheduled G-TxAllo refresh lowers the grown graph once, in
        full.  A-TxAllo never freezes: it reads the live graph."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=2)
        controller = TxAlloController(
            params,
            seed_transactions=[b for blk in block_stream(12) for b in blk],
        )
        assert controller.graph.freeze_stats["full"] == 1  # the seed run
        per_block = []
        for block in block_stream(8, block_size=10, seed=10):
            before = controller.graph.freeze_stats["full"]
            event = controller.observe_block(block)
            per_block.append((event.kind, controller.graph.freeze_stats["full"] - before))
        assert per_block == [
            ("adaptive", 0),
            ("global", 1),
            ("adaptive", 0),
            ("global", 1),
            ("adaptive", 0),
            ("global", 1),
            ("adaptive", 0),
            ("global", 1),
        ]
        assert controller.graph.freeze_stats["delta"] == 0

    def test_seed_event_times_like_scheduled_globals(self):
        """Satellite pin: the seed UpdateEvent carries wall-clock seconds
        around the g_txallo call, same semantics as _run_global."""
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, tau1=5, tau2=10)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        seed_event = controller.events[0]
        assert seed_event.kind == "global"
        assert seed_event.seconds > 0.0


class TestScheduleEdgeCases:
    def test_tau1_equals_tau2_global_subsumes_adaptive(self):
        """When both periods hit the same block the global runs, the
        adaptive is subsumed, and the touched-set is cleared exactly
        once (by the global)."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=3, tau2=3)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        fired = []
        for block in block_stream(6):
            event = controller.observe_block(block)
            if event is not None:
                fired.append(event)
                # The global must have consumed the window's touched-set.
                assert controller._touched == set()
        assert [e.kind for e in fired] == ["global", "global"]
        assert controller.adaptive_events == []
        controller.allocation.validate()

    def test_epsilon_zero_terminates_via_sweep_cap(self):
        """ε=0 can never satisfy `sweep_gain < ε` (gains are >= 0), so the
        run must stop at MAX_SWEEPS and flag the truncation."""
        params = TxAlloParams(k=2, eta=2.0, lam=1000.0, epsilon=0.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b"), ("b", "c")])
        controller.observe_block([("a", "c"), ("c", "d")])
        event = controller.force_adaptive()
        assert event.kind == "adaptive"
        assert event.converged is False
        adaptive = controller.adaptive_events[-1]
        assert adaptive is event
        controller.allocation.validate()

    def test_force_adaptive_right_after_global_is_cheap_noop(self):
        """A global refresh clears the touched-set; an immediate
        force_adaptive must be a no-op event, not an error."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=100, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        for block in block_stream(3):
            controller.observe_block(block)
        controller.force_global()
        mapping_before = controller.allocation.mapping()
        event = controller.force_adaptive()
        assert event.kind == "adaptive"
        assert event.touched == 0
        assert event.moves == 0
        assert event.converged is True
        assert controller.allocation.mapping() == mapping_before

    def test_converged_true_on_normal_runs_and_default(self):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=100)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        events = [controller.observe_block(b) for b in block_stream(4)]
        assert all(e.converged for e in events if e is not None)
        # The seed global event carries the default.
        assert controller.events[0].converged is True


class TestAdaptiveExceptionSafety:
    def test_touched_set_survives_a_raising_adaptive_run(self, monkeypatch):
        """Regression: _run_adaptive used to clear the touched-set before
        calling a_txallo, so a raising run silently lost the accumulated
        accounts and the next run swept nothing."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=2, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        blocks = block_stream(2)
        controller.observe_block(blocks[0])
        accumulated = set(controller._touched)
        assert accumulated, "first block must leave accounts pending"

        def boom(*args, **kwargs):
            raise RuntimeError("injected a_txallo failure")

        monkeypatch.setattr("repro.core.controller.a_txallo", boom)
        with pytest.raises(RuntimeError):
            controller.observe_block(blocks[1])  # block 2 -> adaptive due
        # Both blocks' accounts are still pending.
        assert controller._touched >= accumulated
        monkeypatch.undo()

        event = controller.force_adaptive()
        assert event.touched >= len(accumulated)
        assert controller._touched == set()
        controller.allocation.validate()

    def test_failed_run_does_not_append_an_event(self, monkeypatch):
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=1000)
        controller = TxAlloController(params, seed_transactions=[("a", "b")])
        num_events = len(controller.events)

        def boom(*args, **kwargs):
            raise RuntimeError("injected a_txallo failure")

        monkeypatch.setattr("repro.core.controller.a_txallo", boom)
        with pytest.raises(RuntimeError):
            controller.observe_block([("a", "c")])
        assert len(controller.events) == num_events


class TestAdaptiveRuns:
    def test_block_loop_never_freezes_between_globals(self):
        """The τ₁ loop reads the live graph: no freeze between global
        refreshes, and the workspace counters perfbench reads stay 0."""
        params = TxAlloParams(k=4, eta=2.0, lam=1000.0, tau1=1, tau2=50)
        controller = TxAlloController(
            params, seed_transactions=[b for blk in block_stream(12) for b in blk]
        )
        freezes_after_seed = sum(controller.graph.freeze_stats.values())
        for block in block_stream(8, block_size=10, seed=10):
            controller.observe_block(block)
        assert len(controller.adaptive_events) == 8
        assert sum(controller.graph.freeze_stats.values()) == freezes_after_seed
        assert controller.workspace_stats == {"rebuilds": 0, "reseats": 0, "extends": 0, "runs": 0}

    def test_engine_matches_reference_exactly(self, monkeypatch, any_sum, reference_kernels):
        params = TxAlloParams.with_capacity_for(520, k=4, tau1=1, tau2=5)
        seed = [tx for block in block_stream(12, seed=3) for tx in block]
        calls = count_g_txallo(monkeypatch)

        def drive():
            calls[0] = 0
            controller = TxAlloController(params, seed_transactions=seed)
            for block in block_stream(16, block_size=10, seed=53):
                controller.observe_block(block)
            controller.force_adaptive()
            return controller

        with reference_kernels():
            ref = drive()
        fast = drive()
        assert ref.allocation.mapping() == fast.allocation.mapping()
        assert ref.allocation.sigma == fast.allocation.sigma      # exact floats
        assert ref.allocation.lam_hat == fast.allocation.lam_hat  # exact floats
        assert [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in ref.events
        ] == [
            (e.kind, e.block_height, e.moves, e.touched, e.converged)
            for e in fast.events
        ]
        # Every block carries transactions, so the refreshes at 5, 10 and
        # 15 all re-ran G-TxAllo; each was followed by an adaptive run.
        refreshes = calls[0] - 1  # minus the seed run
        assert refreshes == 3


# ----------------------------------------------------------------------
# Idle-refresh reuse: a scheduled global whose graph and allocation are
# unchanged since the last installed G-TxAllo result keeps that result.
# ----------------------------------------------------------------------
REUSE_TIERS = ["reference", "fast"]

#: Block heights (1-based) that carry transactions; every other block of
#: REUSE_HEIGHT is empty.  With tau1=2, tau2=4 the globals at 4 and 16
#: see new transactions; those at 8, 12 and 20 are idle.
DATA_HEIGHTS = (1, 2, 3, 4, 13)
REUSE_HEIGHT = 20


def reuse_params():
    return TxAlloParams.with_capacity_for(240, k=4, tau1=2, tau2=4)


def kernels(tier, reference_kernels):
    """The oracle's patch context for ``tier == "reference"``, else a bare one."""
    return reference_kernels() if tier == "reference" else pytest.MonkeyPatch.context()


def reuse_stream():
    data = iter(block_stream(len(DATA_HEIGHTS), block_size=20, seed=11))
    return [
        next(data) if h in DATA_HEIGHTS else [] for h in range(1, REUSE_HEIGHT + 1)
    ]


def reuse_seed():
    return [tx for block in block_stream(4) for tx in block]


def event_tuples(events):
    return [(e.kind, e.block_height, e.moves, e.touched, e.converged) for e in events]


def count_g_txallo(monkeypatch):
    """Count the controller's G-TxAllo runs; returns the live counter."""
    calls = [0]
    original = controller_module.g_txallo

    def counting(graph, params, **kwargs):
        calls[0] += 1
        return original(graph, params, **kwargs)

    monkeypatch.setattr(controller_module, "g_txallo", counting)
    return calls


def assert_matches_fresh_global(controller):
    fresh = g_txallo(controller.graph, controller.params).allocation
    assert controller.mapping() == fresh.mapping()
    assert controller.allocation.sigma == fresh.sigma  # exact floats
    assert controller.allocation.lam_hat == fresh.lam_hat  # exact floats


class _AlwaysRefresh(TxAlloController):
    """Oracle: forgets the reuse mark, so every scheduled global re-runs."""

    def _run_global(self):
        self._global_mark = None
        return super()._run_global()


class TestIdleRefreshReuse:
    @pytest.mark.parametrize("tier", REUSE_TIERS)
    def test_reused_refresh_equals_a_fresh_global(self, tier, reference_kernels):
        with kernels(tier, reference_kernels) as mp:
            calls = count_g_txallo(mp)
            controller = TxAlloController(reuse_params(), seed_transactions=reuse_seed())
            for block in reuse_stream():
                event = controller.observe_block(block)
                if event is not None and event.kind == "global":
                    assert_matches_fresh_global(controller)
        # Seed run + the globals at 4 and 16; 8, 12 and 20 were reused.
        assert calls[0] == 3

    @pytest.mark.parametrize("tier", REUSE_TIERS)
    def test_event_stream_unchanged_by_reuse(self, tier, reference_kernels):
        params = reuse_params()
        stream = reuse_stream()
        runs = []
        with kernels(tier, reference_kernels):
            for cls in (TxAlloController, _AlwaysRefresh):
                controller = cls(params, seed_transactions=reuse_seed())
                for block in stream:
                    controller.observe_block(block)
                runs.append(controller)
        reused, oracle = runs
        assert event_tuples(reused.events) == event_tuples(oracle.events)
        assert reused.mapping() == oracle.mapping()
        assert reused.allocation.sigma == oracle.allocation.sigma

        # The hand-computed schedule: globals every tau2, adaptives every
        # other tau1; idle adaptive windows sweep nothing, and a reused
        # global repeats the moves of the run it reuses.
        kinds = [(e.kind, e.block_height) for e in reused.events]
        assert kinds == [("global", 0)] + [
            ("global" if h % 4 == 0 else "adaptive", h)
            for h in range(2, REUSE_HEIGHT + 1, 2)
        ]
        by_height = {e.block_height: e for e in reused.events}
        num_nodes = reused.graph.num_nodes
        for h in (6, 10, 18):
            assert (by_height[h].moves, by_height[h].touched) == (0, 0)
            assert by_height[h].converged is True
        assert by_height[8].moves == by_height[12].moves == by_height[4].moves
        assert by_height[20].moves == by_height[16].moves
        for h in (16, 20):
            assert by_height[h].touched == num_nodes

    def test_adaptive_after_idle_refreshes_matches_reference(self, any_sum, reference_kernels):
        """The adaptive run at 14 sweeps an allocation carried through the
        reused globals at 8 and 12, exactly as the oracle does."""
        runs = []
        for tier in REUSE_TIERS:
            with kernels(tier, reference_kernels):
                controller = TxAlloController(reuse_params(), seed_transactions=reuse_seed())
                for block in reuse_stream():
                    controller.observe_block(block)
            runs.append(controller)
        ref, fast = runs
        assert event_tuples(fast.events) == event_tuples(ref.events)
        by_height = {e.block_height: e for e in fast.events}
        assert by_height[14].kind == "adaptive" and by_height[14].touched > 0
        assert fast.mapping() == ref.mapping()
        assert fast.allocation.sigma == ref.allocation.sigma  # exact floats
        assert fast.allocation.lam_hat == ref.allocation.lam_hat  # exact floats

    def test_foreign_move_forces_a_rerun(self, monkeypatch):
        params = reuse_params()
        controller = TxAlloController(params, seed_transactions=reuse_seed())
        calls = count_g_txallo(monkeypatch)
        account = min(controller.mapping())
        shard = controller.allocation.shard_of(account)
        controller.allocation.move(account, (shard + 1) % params.k)
        for _ in range(4):
            controller.observe_block([])
        assert calls[0] == 1
        assert controller.allocation.shard_of(account) == shard
        assert_matches_fresh_global(controller)

    def test_mutating_an_adopted_graph_forces_a_rerun(self, monkeypatch):
        params = reuse_params()
        graph = TransactionGraph()
        graph.add_transactions(reuse_seed())
        controller = TxAlloController(params, graph=graph)
        calls = count_g_txallo(monkeypatch)
        graph.add_transaction(("fresh-1", "fresh-2"))  # behind the controller's back
        for _ in range(4):
            controller.observe_block([])
        assert calls[0] == 1
        assert "fresh-1" in controller.mapping()
        assert_matches_fresh_global(controller)

    def test_initial_mapping_start_still_refreshes(self, monkeypatch):
        params = reuse_params()
        graph = TransactionGraph()
        graph.add_transactions(reuse_seed())
        start = {v: i % params.k for i, v in enumerate(graph.nodes_sorted())}
        calls = count_g_txallo(monkeypatch)
        controller = TxAlloController(params, graph=graph, initial_mapping=start)
        assert calls[0] == 0
        for _ in range(8):
            controller.observe_block([])
        assert calls[0] == 1  # the global at 4 runs, the one at 8 reuses it
        assert_matches_fresh_global(controller)
