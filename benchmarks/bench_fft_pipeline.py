"""Fusion payoff: one compiled pipeline vs back-to-back solo replays.

The workloads subsystem's headline claim is that a chained pipeline
compiles to a single plan that is *strictly cheaper* than replaying
each stage's solo plan back to back — adjacent bit-permutation stages
compose their address maps into one exchange sequence. Two sweeps:

(1) the ``fft`` preset (shuffle + bit-reversal + transpose) across cube
    sizes, fused vs unfused, in modelled time / phases / start-ups;
(2) representative chained specs on one machine, including the
    degenerate ``transpose+transpose`` (which must fuse to zero
    communication) and a non-power-of-two rectangle.
"""

from benchmarks.reporting import emit_table, ms
from repro.machine.engine import EnsembleNetwork
from repro.machine.presets import connection_machine
from repro.plans.ir import PhaseOp
from repro.plans.replay import replay_plan
from repro.workloads import build_pipeline


def _phases(plan):
    return sum(1 for op in plan.ops if isinstance(op, PhaseOp))


def _replay_cost(plan, params):
    net = EnsembleNetwork(params)
    replay_plan(plan, net)
    return net.stats


def _measure(spec, n):
    params = connection_machine(n)
    pipeline = build_pipeline(spec, n)
    fused, _ = pipeline.compile(params)
    naive, _ = pipeline.compile(params, fuse=False)
    f = _replay_cost(fused, params)
    u = _replay_cost(naive, params)
    return pipeline, fused, naive, f, u


def sweep_fft_scaling():
    rows = []
    for n in (4, 6, 8):
        side = 1 << (n // 2 + 2)
        _, fused, naive, f, u = _measure(f"fft@{side}x{side}", n)
        rows.append(
            [
                n,
                f"{side}x{side}",
                _phases(fused),
                _phases(naive),
                f.startups,
                u.startups,
                ms(f.time),
                ms(u.time),
                round(u.time / f.time, 2),
            ]
        )
    return rows


def sweep_chained_specs():
    specs = [
        ("fft@64x64", 6),
        ("bitrev+transpose@16x16", 4),
        ("bitrev+transpose@13x11", 4),
        ("transpose+transpose@16x16", 4),
        ("dimperm:shuffle+dimperm:unshuffle@64x64", 6),
    ]
    rows = []
    for spec, n in specs:
        _, fused, naive, f, u = _measure(spec, n)
        rows.append(
            [spec, n, _phases(fused), _phases(naive), ms(f.time), ms(u.time)]
        )
    return rows


def test_fft_pipeline_scaling(benchmark):
    rows = benchmark.pedantic(sweep_fft_scaling, rounds=1, iterations=1)
    emit_table(
        "fft_pipeline",
        "FFT data-movement pipeline: fused vs unfused compile (CM, ms)",
        ["n", "shape", "fused ph", "naive ph", "fused su", "naive su",
         "fused ms", "naive ms", "speedup"],
        rows,
        notes="fft = dimperm:shuffle + bitrev + transpose; fused composes "
        "the three address maps into one exchange sequence.",
    )
    for row in rows:
        assert row[2] < row[3]  # fewer phases
        assert row[4] < row[5]  # fewer start-ups
        assert row[6] < row[7]  # cheaper modelled time


def test_chained_specs(benchmark):
    rows = benchmark.pedantic(sweep_chained_specs, rounds=1, iterations=1)
    emit_table(
        "fft_pipeline_chains",
        "Chained pipelines: fused vs unfused (CM, ms)",
        ["spec", "n", "fused ph", "naive ph", "fused ms", "naive ms"],
        rows,
        notes="Self-inverse chains (transpose+transpose, "
        "shuffle+unshuffle) fuse to zero communication phases.",
    )
    by_spec = {r[0]: r for r in rows}
    assert by_spec["transpose+transpose@16x16"][2] == 0
    assert by_spec["dimperm:shuffle+dimperm:unshuffle@64x64"][2] == 0
    for row in rows:
        assert row[2] <= row[3]
        assert row[4] <= row[5]
