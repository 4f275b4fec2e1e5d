"""End-to-end tests of the public transpose planner."""

import numpy as np
import pytest

from repro import (
    BufferPolicy,
    CommClass,
    EnsembleNetwork,
    DistributedMatrix,
    connection_machine,
    custom_machine,
    default_after_layout,
    intel_ipsc,
    transpose,
)
from repro.layout import partition as pt
from repro.machine.params import PortModel


def run(before, after=None, *, machine=None, **kw):
    rng = np.random.default_rng(42)
    A = rng.standard_normal((1 << before.p, 1 << before.q))
    dm = DistributedMatrix.from_global(A, before)
    net = EnsembleNetwork(machine or custom_machine(before.n))
    result = transpose(net, dm, after, **kw)
    return A, result


class TestAutoSelection:
    def test_pairwise_one_port_uses_spt(self):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        A, result = run(before, machine=intel_ipsc(4))
        assert result.algorithm == "spt"
        assert result.comm_class is CommClass.PAIRWISE
        assert result.verify_against(A)

    def test_pairwise_n_port_uses_mpt(self):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        A, result = run(
            before, machine=custom_machine(4, port_model=PortModel.N_PORT)
        )
        assert result.algorithm == "mpt"
        assert result.verify_against(A)

    def test_one_dim_one_port_uses_exchange(self):
        before = pt.row_consecutive(4, 4, 3)
        A, result = run(before, machine=intel_ipsc(3))
        assert result.algorithm == "exchange"
        assert result.comm_class is CommClass.ALL_TO_ALL
        assert result.verify_against(A)

    def test_one_dim_n_port_uses_sbnt(self):
        before = pt.row_consecutive(4, 4, 3)
        A, result = run(
            before, machine=custom_machine(3, port_model=PortModel.N_PORT)
        )
        assert result.algorithm == "block-sbnt"
        assert result.verify_against(A)

    def test_mixed_encoding_uses_combined(self):
        before = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        A, result = run(before)
        assert result.algorithm == "mixed-combined"
        assert result.verify_against(A)

    def test_gray_pairwise_still_mpt(self):
        """Same-encoding Gray 2D layouts commute with the transpose, so
        the plain path algorithms apply (§6.1)."""
        before = pt.two_dim_cyclic(4, 4, 2, 2, gray=True)
        A, result = run(
            before, machine=custom_machine(4, port_model=PortModel.N_PORT)
        )
        assert result.algorithm == "mpt"
        assert result.verify_against(A)

    def test_connection_machine_runs(self):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        A, result = run(before, machine=connection_machine(4))
        assert result.verify_against(A)

    def test_serial_layout(self):
        before = pt.row_cyclic(3, 3, 0)
        A, result = run(before, machine=custom_machine(0))
        assert result.comm_class is CommClass.LOCAL
        assert result.verify_against(A)


class TestExplicitSelection:
    @pytest.mark.parametrize(
        "name", ["spt", "mpt", "router", "block-exchange", "block-sbnt"]
    )
    def test_named_algorithms(self, name):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        A, result = run(
            before,
            machine=custom_machine(4, port_model=PortModel.N_PORT),
            algorithm=name,
        )
        assert result.algorithm == name
        assert result.verify_against(A)

    def test_exchange_with_policy(self):
        before = pt.row_consecutive(4, 4, 2)
        A, result = run(
            before,
            algorithm="exchange",
            policy=BufferPolicy(mode="buffered"),
        )
        assert result.verify_against(A)

    def test_unknown_algorithm_rejected(self):
        before = pt.row_cyclic(3, 3, 1)
        with pytest.raises(ValueError):
            run(before, algorithm="quantum")

    def test_rectangular_needs_explicit_after(self):
        before = pt.row_consecutive(3, 4, 2)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 16))
        dm = DistributedMatrix.from_global(A, before)
        net = EnsembleNetwork(custom_machine(2))
        with pytest.raises(ValueError):
            transpose(net, dm)
        result = transpose(net, dm, pt.row_consecutive(4, 3, 2))
        assert result.verify_against(A)

    def test_default_after_layout_square_identity(self):
        before = pt.two_dim_cyclic(3, 3, 1, 1)
        after = default_after_layout(before)
        assert after.fields == before.fields
        assert (after.p, after.q) == (3, 3)


class TestCostReporting:
    def test_stats_populated(self):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        _, result = run(before, machine=intel_ipsc(4))
        assert result.stats.time > 0
        assert result.stats.phases > 0
        assert result.stats.element_hops > 0

    def test_cm_faster_than_ipsc(self):
        """§9's closing observation: the Connection Machine transposes
        about two orders of magnitude faster than the iPSC."""
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        _, ipsc_result = run(before, machine=intel_ipsc(4))
        _, cm_result = run(before, machine=connection_machine(4))
        assert cm_result.stats.time < ipsc_result.stats.time / 20


class TestAdditionalAlgorithmNames:
    def test_dpt_by_name(self):
        before = pt.two_dim_cyclic(4, 4, 2, 2)
        A, result = run(
            before,
            machine=custom_machine(4, port_model=PortModel.N_PORT),
            algorithm="dpt",
        )
        assert result.algorithm == "dpt"
        assert result.verify_against(A)

    def test_mixed_naive_by_name(self):
        before = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        A, result = run(before, algorithm="mixed-naive")
        assert result.algorithm == "mixed-naive"
        assert result.verify_against(A)

    def test_mixed_combined_beats_naive_via_planner(self):
        before = pt.two_dim_mixed(
            4, 4, 2, 2, rows="cyclic", cols="cyclic", col_gray=True
        )
        _, combined = run(before, machine=intel_ipsc(4), algorithm="mixed-combined")
        _, naive = run(before, machine=intel_ipsc(4), algorithm="mixed-naive")
        assert combined.stats.time < naive.stats.time
