"""Checkpoint snapshots: consistency, cadence, retention, rollback."""

import pytest

from repro.machine import Block, EnsembleNetwork, Message, custom_machine
from repro.recovery import CheckpointManager
from repro.recovery.policy import RecoveryPolicy


def fresh(n=3):
    return EnsembleNetwork(custom_machine(n))


class TestMemorySnapshots:
    def test_snapshot_then_restore_round_trips(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        net.place(1, Block("b", virtual_size=4))
        snaps = net.snapshot_memories()
        net.execute_phase([Message(0, 1, ["a"])])
        assert "a" not in net.memories[0]
        net.restore_memories(snaps)
        assert net.memories[0].get("a").size == 8
        assert net.memories[1].get("b").size == 4

    def test_snapshot_is_isolated_from_later_mutation(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        snaps = net.snapshot_memories()
        net.memories[0].pop("a")
        assert "a" in snaps[0]

    def test_restore_rejects_wrong_node_count(self):
        net = fresh()
        with pytest.raises(ValueError):
            net.restore_memories([{}])


class TestCheckpointManager:
    def test_cadence(self):
        net = fresh()
        mgr = CheckpointManager(every=3, retain=4)
        taken = [
            mgr.maybe_take(net, cursor=i) is not None for i in range(7)
        ]
        assert taken == [False, False, True, False, False, True, False]

    def test_retention_drops_oldest(self):
        net = fresh()
        mgr = CheckpointManager(every=1, retain=2)
        for cursor in range(5):
            mgr.take(net, cursor=cursor)
        assert len(mgr) == 2
        assert mgr.latest.cursor == 4

    def test_rollback_restores_memories_and_keeps_snapshot(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        mgr = CheckpointManager(every=1, retain=2)
        mgr.take(net, cursor=7, mask=0b10)
        net.execute_phase([Message(0, 1, ["a"])])
        ckpt = mgr.rollback(net)
        assert ckpt.cursor == 7 and ckpt.mask == 0b10
        assert net.memories[0].get("a").size == 8
        # The same snapshot can absorb a second fault.
        assert mgr.rollback(net).cursor == 7

    def test_rollback_without_snapshot_is_an_error(self):
        with pytest.raises(RuntimeError):
            CheckpointManager().rollback(fresh())

    def test_take_counts_on_stats(self):
        net = fresh()
        mgr = CheckpointManager()
        mgr.take(net)
        mgr.take(net)
        assert net.stats.checkpoints == 2

    def test_reset_clears_everything(self):
        net = fresh()
        mgr = CheckpointManager(every=1)
        mgr.take(net)
        mgr.reset()
        assert len(mgr) == 0 and mgr.latest is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointManager(every=0)
        with pytest.raises(ValueError):
            CheckpointManager(retain=0)

    def test_resident_elements(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        net.place(2, Block("b", virtual_size=3))
        ckpt = CheckpointManager().take(net)
        assert ckpt.resident_elements == 11


class TestEngineHook:
    def test_live_engine_checkpoints_on_cadence(self):
        net = fresh()
        net.checkpoints = CheckpointManager(every=2)
        net.place(0, Block("a", virtual_size=4))
        for _ in range(4):
            net.execute_phase([Message(0, 1, ["a"])])
            net.execute_phase([Message(1, 0, ["a"])])
        # 8 phases at cadence 2 -> 4 snapshots.
        assert net.stats.checkpoints == 4

    def test_idle_phases_count_toward_cadence(self):
        net = fresh()
        net.checkpoints = CheckpointManager(every=2)
        for _ in range(4):
            net.idle_phase()
        assert net.stats.checkpoints == 2


class TestRecoveryPolicy:
    def test_defaults_and_describe(self):
        policy = RecoveryPolicy()
        assert policy.checkpoint_every == 8
        assert "surgery=on" in policy.describe()

    def test_with_override(self):
        policy = RecoveryPolicy().with_(checkpoint_every=2)
        assert policy.checkpoint_every == 2
        assert policy.max_checkpoints == RecoveryPolicy().max_checkpoints

    def test_from_spec(self):
        policy = RecoveryPolicy.from_spec(
            "every=4,retain=2,rollbacks=9,backoff=17,surgery=off,relabel=on"
        )
        assert policy.checkpoint_every == 4
        assert policy.max_checkpoints == 2
        assert policy.max_rollbacks == 9
        assert policy.max_backoff_phases == 17
        assert policy.allow_surgery is False
        assert policy.allow_relabel is True

    def test_from_spec_empty_is_defaults(self):
        assert RecoveryPolicy.from_spec("") == RecoveryPolicy()

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="wibble"):
            RecoveryPolicy.from_spec("wibble=3")

    def test_from_spec_rejects_bad_boolean(self):
        with pytest.raises(ValueError, match="on or off"):
            RecoveryPolicy.from_spec("surgery=yes")

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(checkpoint_every=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_checkpoints=0)


class TestDigestSeal:
    def test_take_seals_and_validates(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        ckpt = CheckpointManager().take(net)
        assert ckpt.digest is not None
        assert ckpt.validate()

    def test_unsealed_checkpoints_are_trusted(self):
        net = fresh()
        ckpt = CheckpointManager().take(net)
        ckpt.digest = None  # e.g. deserialized from an older format
        assert ckpt.validate()

    def test_tampered_snapshot_fails_validation(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        ckpt = CheckpointManager().take(net)
        ckpt.memories[0]["a"] = Block("a", virtual_size=999)
        assert not ckpt.validate()

    def test_rollback_skips_corrupted_snapshot(self):
        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        mgr = CheckpointManager(every=1, retain=3)
        mgr.take(net, cursor=1)
        mgr.take(net, cursor=2)
        mgr.latest.memories[0]["a"] = Block("a", virtual_size=999)
        ckpt = mgr.rollback(net)
        assert ckpt.cursor == 1  # the damaged newest one was discarded
        assert net.memories[0].get("a").size == 8
        assert len(mgr) == 1

    def test_rollback_refuses_when_every_snapshot_is_corrupt(self):
        from repro.integrity.errors import CorruptedCheckpointError

        net = fresh()
        net.place(0, Block("a", virtual_size=8))
        mgr = CheckpointManager(every=1, retain=2)
        mgr.take(net, cursor=1)
        mgr.take(net, cursor=2)
        for ckpt in list(mgr._snapshots):
            ckpt.memories[0]["a"] = Block("a", virtual_size=999)
        with pytest.raises(CorruptedCheckpointError) as exc:
            mgr.rollback(net)
        assert exc.value.discarded == 2
        assert len(mgr) == 0
