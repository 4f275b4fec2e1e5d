"""Fault injection: does the verification harness actually catch bugs?

A reproduction whose tests cannot fail is theatre.  Here we wrap the
engine with deliberate faults — a misrouted message, a dropped block, a
corrupted payload — and assert the standard checks (gather-compare,
conservation, exclusivity) detect each one.
"""

import numpy as np
import pytest

from repro.layout import DistributedMatrix
from repro.layout import partition as pt
from repro.machine import EnsembleNetwork, Message, custom_machine
from repro.machine.engine import LinkConflictError
from repro.transpose.two_dim import two_dim_transpose_spt


class MisroutingNetwork(EnsembleNetwork):
    """Redirects the payload of the k-th message to a wrong neighbour."""

    def __init__(self, params, *, fault_at: int):
        super().__init__(params)
        self._countdown = fault_at

    def execute_phase(self, messages, *, exclusive=False):
        patched = []
        for msg in messages:
            if self._countdown == 0:
                wrong = msg.dst ^ 1 if msg.dst ^ 1 != msg.src else msg.dst ^ 2
                msg = Message(msg.src, wrong, msg.keys)
            self._countdown -= 1
            patched.append(msg)
        return super().execute_phase(patched, exclusive=exclusive)


class DroppingNetwork(EnsembleNetwork):
    """Silently deletes one block instead of delivering it."""

    def __init__(self, params, *, fault_at: int):
        super().__init__(params)
        self._countdown = fault_at

    def execute_phase(self, messages, *, exclusive=False):
        duration = super().execute_phase(messages, exclusive=exclusive)
        for msg in messages:
            if self._countdown == 0:
                # Remove the delivered block from the destination.
                for key in msg.keys:
                    if key in self.memory(msg.dst):
                        self.memory(msg.dst).pop(key)
            self._countdown -= 1
        return duration


class CorruptingNetwork(EnsembleNetwork):
    """Flips one element of one delivered payload."""

    def __init__(self, params, *, fault_at: int):
        super().__init__(params)
        self._countdown = fault_at

    def execute_phase(self, messages, *, exclusive=False):
        duration = super().execute_phase(messages, exclusive=exclusive)
        for msg in messages:
            if self._countdown == 0:
                block = self.memory(msg.dst).get(msg.keys[0])
                if block.data is not None and block.data.size:
                    block.data.reshape(-1)[0] += 1.0
            self._countdown -= 1
        return duration


def run_spt(network_cls, **kw):
    layout = pt.two_dim_cyclic(3, 3, 1, 1)
    A = np.arange(64, dtype=np.float64).reshape(8, 8)
    net = network_cls(custom_machine(2), **kw)
    out = two_dim_transpose_spt(
        net, DistributedMatrix.from_global(A, layout), layout
    )
    return A, out, net


class TestFaultsAreCaught:
    def test_misrouted_message_breaks_the_algorithm(self):
        """A wrongly delivered block either crashes the collection step
        (the expected block is missing) or corrupts the result."""
        with pytest.raises((KeyError, ValueError, AssertionError)):
            A, out, _ = run_spt(MisroutingNetwork, fault_at=1)
            assert np.array_equal(out.to_global(), A.T)

    def test_dropped_block_is_detected(self):
        with pytest.raises((KeyError, AssertionError)):
            A, out, net = run_spt(DroppingNetwork, fault_at=0)
            assert np.array_equal(out.to_global(), A.T)

    def test_corrupted_payload_fails_gather_compare(self):
        A, out, _ = run_spt(CorruptingNetwork, fault_at=0)
        assert not np.array_equal(out.to_global(), A.T)

    def test_clean_control_run_passes(self):
        """The same harness with the fault disabled (never triggers)."""
        A, out, net = run_spt(MisroutingNetwork, fault_at=10**9)
        assert np.array_equal(out.to_global(), A.T)
        for x in range(net.params.num_procs):
            assert len(net.memory(x)) == 0

    def test_exclusive_mode_catches_schedule_bugs(self):
        """Duplicate a pipelined message: the engine must refuse."""

        class DuplicatingNetwork(EnsembleNetwork):
            def execute_phase(self, messages, *, exclusive=False):
                if exclusive and messages:
                    messages = list(messages) + [messages[0]]
                return super().execute_phase(messages, exclusive=exclusive)

        layout = pt.two_dim_cyclic(3, 3, 1, 1)
        A = np.arange(64, dtype=np.float64).reshape(8, 8)
        net = DuplicatingNetwork(custom_machine(2))
        with pytest.raises((LinkConflictError, KeyError)):
            two_dim_transpose_spt(
                net,
                DistributedMatrix.from_global(A, layout),
                layout,
                packet_size=4,
            )
