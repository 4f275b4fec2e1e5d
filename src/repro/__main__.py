"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``advise``    rank the paper's algorithms for a machine/problem size
              (the §9 decision procedure);
``run``       execute one simulated transpose and print the cost report;
``machines``  show the calibrated machine presets;
``plan``      compile a transpose into a :class:`CompiledPlan` document;
``replay``    execute a compiled plan on a fresh (optionally faulted)
              network without re-planning — ``--recover`` resumes from
              checkpoints instead of restarting on faults;
``batch``     serve many transpose requests through the plan cache;
``chaos``     soak seeded random fault plans through live runs and
              recovery replays, verifying every outcome;
``baseline``  record or check the pinned perf-regression suite;
``serve``     run the multi-tenant serving layer over a request file;
``loadgen``   drive a server with seeded synthetic traffic and verify
              a sample of outcomes bit-identically against solo runs.

``run`` and ``plan`` also accept ``--workload SPEC`` to execute or
compile a composite permutation pipeline (``repro.workloads`` grammar,
e.g. ``pipeline:bitrev+transpose@13x11`` or ``fft@64x64``) instead of a
plain transpose, and ``loadgen --workload`` mixes pipeline requests
into the synthetic stream.

``advise``, ``run``, ``machines``, ``plan``, ``replay``, ``batch``,
``chaos``, ``serve`` and ``loadgen`` accept ``--json`` for
machine-readable output.  Every ``--json`` document shares one
envelope::

    {"schema_version": 1, "command": "<name>", "result": {...}}

so consumers can dispatch on ``command`` and version-gate on
``schema_version`` instead of sniffing per-command shapes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

#: Version of the shared ``--json`` envelope.  Bump when the envelope
#: itself (not a command's ``result`` payload) changes shape.
JSON_SCHEMA_VERSION = 1


def emit_json(command: str, result) -> None:
    """Print one machine-readable document in the unified envelope."""
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": command,
        "result": result,
    }
    print(json.dumps(doc, indent=2))


def _machine(args):
    from repro.machine.presets import connection_machine, custom_machine, intel_ipsc

    if args.machine == "ipsc":
        return intel_ipsc(args.n)
    if args.machine == "cm":
        return connection_machine(args.n)
    from repro.machine.params import PortModel

    return custom_machine(
        args.n,
        tau=args.tau,
        t_c=args.t_c,
        port_model=PortModel.N_PORT if args.n_port else PortModel.ONE_PORT,
    )


def cmd_advise(args) -> int:
    from repro.analysis.report import format_report, report_data

    if args.json:
        emit_json("advise", report_data(_machine(args), args.elements))
    else:
        print(format_report(_machine(args), args.elements))
    return 0


def _stats_recovery_block(stats, *, resolved: str) -> dict:
    """The ``recovery`` JSON block for runs accounted through TransferStats."""
    return {
        "resolved": resolved,
        "fault_encounters": stats.fault_events,
        "checkpoints": stats.checkpoints,
        "rollbacks": stats.rollbacks,
        "replayed_phases": stats.replayed_phases,
        "wasted_elements": stats.wasted_elements,
        "backoff_phases": stats.stall_phases,
    }


def _resolve_problem(args):
    """CLI-side wrapper: bad problem parameters exit with status 2."""
    from repro.plans.batch import resolve_problem

    try:
        return resolve_problem(args.n, args.elements, args.layout)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _topology(args):
    """Resolve ``--topology`` against ``-n``; None means bad input.

    A non-cube topology fixes the node count, so it wins over ``-n``:
    the cube dimension is re-derived as log2(nodes) and must be exact —
    the transpose algorithms address nodes by bit fields.
    """
    from repro.topology import TopologyError, parse_topology

    try:
        topo = parse_topology(getattr(args, "topology", None), args.n)
    except TopologyError as exc:
        print(f"bad --topology spec: {exc}", file=sys.stderr)
        return None
    if topo.num_nodes != 1 << args.n:
        count = topo.num_nodes
        derived = count.bit_length() - 1
        if 1 << derived != count:
            print(
                f"topology {topo.spec!r} has {count} nodes, which is not "
                "a power of two; the transpose algorithms need 2^n nodes",
                file=sys.stderr,
            )
            return None
        args.n = derived
    return topo


def _build_cli_pipeline(args, topo):
    """Materialize ``--workload`` against the CLI problem; None = bad input."""
    from repro.workloads import build_pipeline

    if topo.name != "cube":
        print(
            "workload pipelines require the cube topology "
            f"(requested {topo.spec!r})",
            file=sys.stderr,
        )
        return None
    try:
        return build_pipeline(
            args.workload, args.n, layout=args.layout,
            elements=args.elements,
        )
    except ValueError as exc:
        print(f"bad --workload spec: {exc}", file=sys.stderr)
        return None


def _run_workload(args, topo) -> int:
    """``repro run --workload``: execute a pipeline on real data."""
    from repro import EnsembleNetwork
    from repro.machine.faults import FaultError, FaultPlan, RoutingStalledError

    pipeline = _build_cli_pipeline(args, topo)
    if pipeline is None:
        return 2
    faults = None
    if args.faults:
        try:
            faults = FaultPlan.from_spec(args.n, args.faults)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2

    trace_sink = instr = None
    if args.trace:
        from repro.obs import ChromeTraceSink, Instrumentation

        trace_sink = ChromeTraceSink()
        instr = Instrumentation(trace_sink)

    served = None
    if faults is not None:
        # Pipelines have no degradation ladder; faulted runs go through
        # the checkpointed recovery executor, exactly like the server.
        from repro.plans.cache import PlanCache
        from repro.recovery import RecoveryFailedError
        from repro.workloads import serve_workload

        try:
            served = serve_workload(
                pipeline,
                _machine(args),
                faults=faults,
                cache=PlanCache(),
                observer=instr,
            )
        except (FaultError, RoutingStalledError, RecoveryFailedError) as exc:
            print(f"workload failed under faults: {exc}", file=sys.stderr)
            return 1
        stats = served.stats
        ok = bool(served.verified)
    else:
        rng = np.random.default_rng(0)
        A = rng.standard_normal((pipeline.shape.rows, pipeline.shape.cols))
        net = EnsembleNetwork(_machine(args))
        if instr is not None:
            instr.attach(net)
        result = pipeline.execute(net, A)
        stats = net.stats
        ok = bool(np.array_equal(result, pipeline.reference(A)))

    if trace_sink is not None:
        trace_sink.write(args.trace)
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    shape = pipeline.shape
    if args.json:
        doc = {
            "workload": pipeline.spec,
            "rows": shape.rows,
            "cols": shape.cols,
            "padded_rows": shape.padded_rows,
            "padded_cols": shape.padded_cols,
            "stages": [s.describe() for s in pipeline.stages],
            "machine": _machine(args).name,
            "port_model": _machine(args).port_model.value,
            "topology": topo.spec,
            "algorithm": pipeline.algorithm,
            "faults": None if faults is None else faults.describe(),
            "verified": ok,
            "stats": stats.as_dict(),
        }
        if served is not None:
            doc["resolved"] = served.resolved
            doc["recovery"] = (
                None if served.recovery is None else served.recovery.as_dict()
            )
        emit_json("run", doc)
        return 0 if ok else 1
    params = _machine(args)
    print(
        f"workload:   {pipeline.spec} "
        f"({shape.rows} x {shape.cols}, padded to "
        f"{shape.padded_rows} x {shape.padded_cols})"
    )
    print(f"machine:    {params.name} ({params.port_model.value})")
    print(f"algorithm:  {pipeline.algorithm}")
    if faults is not None:
        print(f"faults:     {faults.describe()}")
    if served is not None:
        rec = served.recovery
        print(f"resolved:   {served.resolved}")
        if rec is not None:
            print(
                f"recovery:   {rec.checkpoints_taken} checkpoint(s), "
                f"{rec.rollbacks} rollback(s), "
                f"{rec.replayed_phases} replayed phase(s)"
            )
    print(f"verified:   {ok}")
    print(f"model time: {stats.summary()}")
    return 0 if ok else 1


def cmd_run(args) -> int:
    from repro import EnsembleNetwork, DistributedMatrix, transpose
    from repro.machine.faults import FaultError, FaultPlan, RoutingStalledError

    topo = _topology(args)
    if topo is None:
        return 2
    if args.workload:
        return _run_workload(args, topo)
    on_cube = topo.name == "cube"
    resolved = _resolve_problem(args)
    if resolved is None:
        return 2
    layout, after = resolved

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.from_spec(
                args.n, args.faults, topology=None if on_cube else topo
            )
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2

    rng = np.random.default_rng(0)
    A = rng.standard_normal((1 << layout.p, 1 << layout.q))
    net = EnsembleNetwork(_machine(args), faults=faults, topology=topo)
    if args.checkpoint_every:
        from repro.recovery import CheckpointManager

        net.checkpoints = CheckpointManager(every=args.checkpoint_every)

    recorder = trace_sink = None
    if args.trace or args.timeline:
        from repro.machine.trace import TraceRecorder
        from repro.obs import ChromeTraceSink, Instrumentation

        sinks = []
        if args.trace:
            trace_sink = ChromeTraceSink()
            sinks.append(trace_sink)
        if args.timeline:
            recorder = TraceRecorder()
            sinks.append(recorder)
        Instrumentation(*sinks).attach(net)

    try:
        result = transpose(
            net,
            DistributedMatrix.from_global(A, layout),
            after,
            algorithm=args.algorithm,
        )
    except (FaultError, RoutingStalledError) as exc:
        print(f"transpose failed under faults: {exc}", file=sys.stderr)
        return 1
    ok = result.verify_against(A)

    if trace_sink is not None:
        trace_sink.write(args.trace)
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if args.json:
        doc = {
            "rows": 1 << layout.p,
            "cols": 1 << layout.q,
            "elements": args.elements,
            "layout": layout.describe(),
            "machine": net.params.name,
            "port_model": net.params.port_model.value,
            "topology": topo.spec,
            "algorithm": result.algorithm,
            "comm_class": result.comm_class.value,
            "requested": result.requested,
            "degraded": result.degraded,
            "fallbacks": list(result.fallbacks),
            "recovery_overhead": result.recovery_overhead,
            "faults": None if faults is None else faults.describe(),
            "verified": ok,
            "recovery": _stats_recovery_block(
                result.stats,
                resolved="ladder" if result.fallbacks else "clean",
            ),
            "stats": result.stats.as_dict(),
        }
        emit_json("run", doc)
        return 0 if ok else 1
    print(f"matrix:     {1 << layout.p} x {1 << layout.q} ({args.elements} elements)")
    print(f"layout:     {layout.describe()}")
    print(f"machine:    {net.params.name} ({net.params.port_model.value})")
    if not on_cube:
        print(f"topology:   {topo.describe()}")
    print(f"algorithm:  {result.algorithm} ({result.comm_class.value})")
    if faults is not None:
        print(f"faults:     {faults.describe()}")
        if result.degraded:
            print(
                f"degraded:   {result.requested} -> {result.algorithm} "
                f"(skipped {', '.join(result.fallbacks)}); recovery "
                f"overhead {result.recovery_overhead * 1e3:.3f} ms"
            )
        if result.stats.rollbacks or result.stats.checkpoints:
            print(
                f"recovery:   {result.stats.checkpoints} checkpoint(s), "
                f"{result.stats.rollbacks} rollback(s), "
                f"{result.stats.replayed_phases} replayed phase(s), "
                f"{result.stats.wasted_elements} wasted element(s)"
            )
    print(f"verified:   {ok}")
    print(f"model time: {result.stats.summary()}")
    if args.heatmap:
        print()
        if on_cube:
            from repro.analysis.report import format_link_heatmap

            print(format_link_heatmap(result.stats, net.params.n))
        else:
            from repro.analysis.report import format_topology_heatmap

            print(format_topology_heatmap(result.stats, topo))
    if recorder is not None:
        from repro.analysis.report import format_congestion_timeline

        print()
        print(format_congestion_timeline(recorder.events))
    return 0 if ok else 1


def cmd_machines(args) -> int:
    from repro.machine.presets import connection_machine, intel_ipsc

    presets = (intel_ipsc(args.n), connection_machine(args.n))
    if args.json:
        from repro.plans.ir import MachineSpec

        emit_json(
            "machines",
            [MachineSpec.from_params(m).as_dict() for m in presets],
        )
        return 0
    for m in presets:
        print(
            f"{m.name}: tau={m.tau * 1e6:.0f} us, t_c={m.t_c * 1e6:.2f} us/el, "
            f"B_m={m.packet_capacity} el, t_copy={m.t_copy * 1e6:.1f} us/el, "
            f"{m.port_model.value}, pipelined={m.pipelined}"
        )
    return 0


def cmd_plan(args) -> int:
    from repro.plans import capture_transpose, plan_key, synthetic_matrix
    from repro.plans.cache import PlanCache

    topo = _topology(args)
    if topo is None:
        return 2
    params = _machine(args)
    if args.workload:
        pipeline = _build_cli_pipeline(args, topo)
        if pipeline is None:
            return 2
        plan, _ = pipeline.compile(params)
        key = pipeline.key(params)
    else:
        resolved = _resolve_problem(args)
        if resolved is None:
            return 2
        before, after = resolved
        _, plan = capture_transpose(
            params,
            synthetic_matrix(before),
            after,
            algorithm=args.algorithm,
            topology=topo,
        )
        key = plan_key(
            params, before, after, plan.algorithm, topology=topo.spec
        )
    if args.cache_dir:
        PlanCache(path=args.cache_dir).put(key, plan)
        print(f"cached {plan.describe()}", file=sys.stderr)
        print(key)
    elif args.out:
        with open(args.out, "w") as fh:
            fh.write(plan.dumps(indent=2))
        print(
            f"wrote {args.out}: {plan.describe()} "
            f"(fingerprint {plan.fingerprint[:16]})",
            file=sys.stderr,
        )
    elif args.json:
        doc = json.loads(plan.dumps())
        doc["key"] = key
        emit_json("plan", doc)
    else:
        print(plan.dumps(indent=2))
    return 0


def cmd_replay(args) -> int:
    from repro import EnsembleNetwork
    from repro.machine.faults import FaultError, FaultPlan, RoutingStalledError
    from repro.plans.ir import CompiledPlan, PlanError
    from repro.plans.replay import PlanReplayError, replay_plan
    from repro.topology import parse_topology

    try:
        with open(args.plan) as fh:
            plan = CompiledPlan.loads(fh.read())
    except (OSError, PlanError) as exc:
        print(f"cannot load plan: {exc}", file=sys.stderr)
        return 2

    # Replay on the interconnect the plan was compiled for.
    topo = parse_topology(plan.machine.topology, plan.machine.n)
    on_cube = topo.name == "cube"
    if args.recover is not None and not on_cube:
        print(
            f"bad --recover: the plan targets topology {topo.spec!r}; "
            "resume-based recovery rewrites cube schedules only",
            file=sys.stderr,
        )
        return 2

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.from_spec(
                plan.machine.n,
                args.faults,
                topology=None if on_cube else topo,
            )
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2

    recovery_doc = None
    verified = None
    network = EnsembleNetwork(plan.machine.to_params(), faults=faults, topology=topo)
    if args.recover is not None:
        from repro.recovery import (
            RecoveryFailedError,
            RecoveryPolicy,
            execute_with_recovery,
        )

        try:
            policy = RecoveryPolicy.from_spec(args.recover)
            if args.checkpoint_every:
                policy = policy.with_(checkpoint_every=args.checkpoint_every)
        except ValueError as exc:
            print(f"bad --recover spec: {exc}", file=sys.stderr)
            return 2
        try:
            outcome = execute_with_recovery(plan, network, policy=policy)
        except PlanReplayError as exc:
            print(f"replay rejected: {exc}", file=sys.stderr)
            return 2
        except RecoveryFailedError as exc:
            print(f"recovery failed: {exc}", file=sys.stderr)
            recovery_doc = exc.report.as_dict()
            if args.json:
                doc = {
                    "plan": plan.describe(),
                    "algorithm": plan.algorithm,
                    "fingerprint": plan.fingerprint,
                    "faults": None if faults is None else faults.describe(),
                    "recovery": recovery_doc,
                    "verified": False,
                    "stats": network.stats.as_dict(),
                }
                emit_json("replay", doc)
            return 1
        recovery_doc = outcome.report.as_dict()
        verified = outcome.verified
    else:
        checkpoints = None
        if args.checkpoint_every:
            from repro.recovery import CheckpointManager

            checkpoints = CheckpointManager(every=args.checkpoint_every)
        try:
            replay_plan(plan, network, checkpoints=checkpoints)
        except PlanReplayError as exc:
            print(f"replay rejected: {exc}", file=sys.stderr)
            return 2
        except (FaultError, RoutingStalledError) as exc:
            print(f"replay failed under faults: {exc}", file=sys.stderr)
            return 1
        if faults is not None or args.checkpoint_every:
            recovery_doc = _stats_recovery_block(
                network.stats, resolved="clean"
            )
    if args.json:
        doc = {
            "plan": plan.describe(),
            "algorithm": plan.algorithm,
            "fingerprint": plan.fingerprint,
            "faults": None if faults is None else faults.describe(),
            "recovery": recovery_doc,
            "verified": verified,
            "stats": network.stats.as_dict(),
        }
        emit_json("replay", doc)
        return 0 if verified is not False else 1
    print(f"plan:       {plan.describe()}")
    if faults is not None:
        print(f"faults:     {faults.describe()}")
    if recovery_doc is not None and args.recover is not None:
        print(
            f"recovery:   resolved={recovery_doc['resolved']}, "
            f"{recovery_doc['fault_encounters']} fault(s), "
            f"{recovery_doc['checkpoints_taken']} checkpoint(s), "
            f"{recovery_doc['rollbacks']} rollback(s), "
            f"{recovery_doc['replayed_phases']} replayed phase(s)"
        )
        print(f"verified:   {verified}")
    print(f"model time: {network.stats.summary()}")
    return 0 if verified is not False else 1


def cmd_batch(args) -> int:
    from repro.plans.batch import BatchRequest, run_batch
    from repro.plans.cache import PlanCache

    try:
        with open(args.requests) as fh:
            docs = json.load(fh)
        if not isinstance(docs, list):
            raise ValueError("requests file must hold a JSON array")
        requests = [BatchRequest.from_dict(d) for d in docs]
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot load requests: {exc}", file=sys.stderr)
        return 2

    recovery = None
    if args.recover is not None:
        from repro.recovery import RecoveryPolicy

        try:
            recovery = RecoveryPolicy.from_spec(args.recover)
        except ValueError as exc:
            print(f"bad --recover spec: {exc}", file=sys.stderr)
            return 2

    cache = PlanCache(capacity=args.cache_size, path=args.cache_dir)
    reports = [
        run_batch(requests, cache=cache, recovery=recovery)
        for _ in range(args.repeat)
    ]
    if args.json:
        doc = {
            "runs": [r.as_dict() for r in reports],
            "cache": cache.counters(),
        }
        emit_json("batch", doc)
        return 0
    for i, report in enumerate(reports, 1):
        print(f"run {i}: {report.summary()}")
    c = cache.counters()
    print(
        f"cache: {c['hits']} hit(s), {c['misses']} miss(es), "
        f"{c['evictions']} eviction(s), {c['resident']} resident"
    )
    return 0


def _parse_watchdog(value):
    """``--watchdog`` seconds, with ``off``/``none`` disabling it."""
    if value is None:
        return None
    text = str(value).strip().lower()
    if text in ("off", "none", ""):
        return None
    return float(value)


def cmd_service_chaos(args) -> int:
    """``repro chaos --service``: batter the serving stack itself."""
    from repro.service import ServerConfig, ServiceChaosSpec, run_service_chaos

    try:
        spec = ServiceChaosSpec(
            seed=args.seed,
            requests=args.requests,
            tenants=args.tenants,
            n=args.n,
            kill_rate=args.kill_rate,
            hang_rate=args.hang_rate,
            hang_seconds=args.hang_seconds,
            poison_rate=args.poison_rate,
            crash_rate=args.crash_rate,
            slow_rate=args.slow_rate,
            verify_sample=args.verify_sample,
        )
        config = ServerConfig(
            workers=args.workers,
            retries=args.retries,
            watchdog=_parse_watchdog(args.watchdog),
            supervise=None if not args.no_supervise else False,
            poison_threshold=args.poison_threshold,
        )
    except ValueError as exc:
        print(f"bad service chaos spec: {exc}", file=sys.stderr)
        return 2
    report = run_service_chaos(spec, config)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.events_out:
        _write_json(
            args.events_out,
            report.supervisor_events,
            label="supervisor event log",
        )
    ok = report.ok
    if args.expect_worker_loss:
        # The disabled-resilience arm: the soak must still resolve
        # everything exactly once, AND demonstrably lose workers —
        # proving the supervisor (absent here) is what saves the pool.
        ok = ok and report.workers_lost > 0
    if args.json:
        doc = report.as_dict()
        doc["ok"] = ok
        emit_json("chaos", doc)
    else:
        print(report.summary())
        if args.expect_worker_loss and report.workers_lost == 0:
            print(
                "expected worker loss with resilience disabled, saw none",
                file=sys.stderr,
            )
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    from repro.recovery import RecoveryPolicy, run_chaos

    if args.service:
        return cmd_service_chaos(args)
    topo = _topology(args)
    if topo is None:
        return 2
    try:
        policy = RecoveryPolicy.from_spec(args.recover or "")
    except ValueError as exc:
        print(f"bad --recover spec: {exc}", file=sys.stderr)
        return 2
    if args.modes is None:
        # Recovery replays rewrite cube schedules, so the default soak
        # on a non-cube interconnect runs live trials only.
        args.modes = "live" if topo.name != "cube" else "replay,cached,live"
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    progress = None
    if args.verbose:

        def progress(trial):
            print(
                f"seed={trial.seed:>3} mode={trial.mode:<6} "
                f"{trial.outcome}"
                + (
                    f" ({trial.resolved})"
                    if trial.outcome == "verified"
                    else ""
                ),
                file=sys.stderr,
            )

    try:
        report = run_chaos(
            n=args.n,
            elements=args.elements,
            layout=args.layout,
            algorithm=args.algorithm,
            seeds=args.seeds,
            modes=modes,
            link_rate=args.link_rate,
            transient_rate=args.transient_rate,
            window=args.window,
            corrupt_rate=args.corrupt,
            corrupt_intensity=args.corrupt_intensity,
            policy=policy,
            progress=progress,
            topology=topo,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        emit_json("chaos", report.as_dict())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _server_config(args):
    """Build a ServerConfig from flags or a JSON spec; None on bad input."""
    from dataclasses import replace

    from repro.service import ServerConfig

    try:
        if args.config:
            with open(args.config) as fh:
                config = ServerConfig.from_dict(json.load(fh))
        else:
            config = ServerConfig(
                workers=args.workers,
                queue_capacity=args.queue_capacity,
                tenant_pending=args.tenant_pending or None,
                tenant_rate=args.tenant_rate,
                max_batch=args.max_batch,
                cache_capacity=args.cache_size,
                cache_dir=args.cache_dir,
                recovery=args.recover,
                retries=args.retries,
                watchdog=_parse_watchdog(args.watchdog),
                poison_threshold=args.poison_threshold,
                breaker=args.breaker,
                brownout=args.brownout,
            )
        # Observability flags compose with either source: asking for a
        # trace file arms tracing, and --metrics-port always wins.
        if getattr(args, "trace", None):
            config = replace(config, trace=True)
        if getattr(args, "metrics_port", None) is not None:
            config = replace(config, metrics_port=args.metrics_port)
        return config
    except (OSError, ValueError, TypeError) as exc:
        print(f"bad server config: {exc}", file=sys.stderr)
        return None


def _write_json(path: str, doc, *, label: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {label} {path}", file=sys.stderr)


def cmd_serve(args) -> int:
    from repro.service import (
        AdmissionRejectedError,
        TransposeRequest,
        TransposeServer,
    )

    config = _server_config(args)
    if config is None:
        return 2
    try:
        with open(args.requests) as fh:
            docs = json.load(fh)
        if not isinstance(docs, list):
            raise ValueError("requests file must hold a JSON array")
        base = {"tenant": "default"}
        if args.topology:
            # Default interconnect for requests that don't name one; a
            # request's own "topology" field still wins.
            base["topology"] = args.topology
        requests = [
            TransposeRequest.from_dict({**base, "request_id": i, **d})
            for i, d in enumerate(docs)
        ]
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot load requests: {exc}", file=sys.stderr)
        return 2

    with TransposeServer(config) as server:
        pendings = []
        for request in requests:
            try:
                pendings.append(server.submit(request))
            except ValueError as exc:
                print(
                    f"request {request.request_id} invalid: {exc}",
                    file=sys.stderr,
                )
                return 2
            except AdmissionRejectedError as exc:
                if args.verbose:
                    print(f"shed: {exc}", file=sys.stderr)
        for pending in pendings:
            pending.result(timeout=600.0)
    report = server.report()
    if args.trace:
        _write_json(args.trace, server.trace_document(), label="trace")
    if args.flight_out and report.flight_reports:
        _write_json(
            args.flight_out, report.flight_reports, label="flight dump"
        )
    if args.metrics_out:
        from repro.obs.ops import format_prometheus

        with open(args.metrics_out, "w") as fh:
            fh.write(format_prometheus(server.metrics()))
        print(f"wrote metrics {args.metrics_out}", file=sys.stderr)
    failed = report.slo()["failed"]
    if args.json:
        emit_json("serve", report.as_dict(with_outcomes=args.outcomes))
        return 0 if failed == 0 else 1
    slo = report.slo()
    lat = slo["latency_s"]["total"]
    print(
        f"served {slo['served']}/{slo['requests']} request(s) on "
        f"{report.workers} worker(s): {slo['rejected']} shed, "
        f"{slo['deadline_missed']} missed deadline, {failed} failed"
    )
    print(
        f"cache hit rate {slo['cache_hit_rate']:.1%}; latency p50 "
        f"{lat['p50'] * 1e3:.1f} ms, p95 {lat['p95'] * 1e3:.1f} ms, "
        f"p99 {lat['p99'] * 1e3:.1f} ms"
    )
    for tenant, t in report.per_tenant().items():
        print(
            f"  {tenant}: admitted {t['admitted']}, served {t['served']}, "
            f"rejected {t['rejected']}, cache hits {t['cache_hits']}"
        )
    return 0 if failed == 0 else 1


def cmd_loadgen(args) -> int:
    from repro.service import LoadSpec, run_loadgen

    config = _server_config(args)
    if config is None:
        return 2
    try:
        spec = LoadSpec(
            seed=args.seed,
            tenants=args.tenants,
            requests=args.requests,
            mode=args.mode,
            rate=args.rate,
            shapes=args.shapes,
            n=args.n,
            machine=args.machine,
            fault_rate=args.fault_rate,
            deadline=args.deadline,
            verify_sample=args.verify_sample,
            request_timeout=args.request_timeout,
            workload=args.workload,
            workload_every=args.workload_every if args.workload else 0,
        )
    except ValueError as exc:
        print(f"bad loadgen spec: {exc}", file=sys.stderr)
        return 2
    report = run_loadgen(spec, config)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.trace and report.trace is not None:
        _write_json(args.trace, report.trace, label="trace")
    if args.flight_out and report.server.flight_reports:
        _write_json(
            args.flight_out,
            report.server.flight_reports,
            label="flight dump",
        )
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(report.metrics_text)
        print(f"wrote metrics {args.metrics_out}", file=sys.stderr)
    if args.json:
        emit_json("loadgen", report.as_dict())
    else:
        print(report.summary())
        for tenant, t in report.server.per_tenant().items():
            print(
                f"  {tenant}: admitted {t['admitted']}, served "
                f"{t['served']}, rejected {t['rejected']}, cache hits "
                f"{t['cache_hits']}, missed deadlines "
                f"{t['deadline_missed']}"
            )
    return 0 if report.ok else 1


def cmd_top(args) -> int:
    """Drive a seeded soak and repaint a live ops dashboard over it."""
    import threading

    from repro.obs.ops import render_top
    from repro.service import LoadSpec, TransposeServer, build_workload
    from repro.service.loadgen import _drive_closed, _drive_open

    config = _server_config(args)
    if config is None:
        return 2
    try:
        spec = LoadSpec(
            seed=args.seed,
            tenants=args.tenants,
            requests=args.requests,
            mode=args.mode,
            rate=args.rate,
            shapes=args.shapes,
            n=args.n,
            machine=args.machine,
            fault_rate=args.fault_rate,
            deadline=args.deadline,
            verify_sample=0,
        )
    except ValueError as exc:
        print(f"bad soak spec: {exc}", file=sys.stderr)
        return 2

    server = TransposeServer(config)
    requests = build_workload(spec)
    done = threading.Event()

    def drive() -> None:
        try:
            if spec.mode == "closed":
                _drive_closed(server, requests, spec)
            else:
                _drive_open(server, requests, spec)
        finally:
            done.set()

    def frame(*, clear: bool) -> None:
        doc = server.report().as_dict()
        print(render_top(doc, title="repro top", clear=clear), end="",
              flush=True)

    with server:
        if server.exporter is not None:
            print(
                f"metrics on http://127.0.0.1:{server.exporter.port}/metrics",
                file=sys.stderr,
            )
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        try:
            while not done.wait(args.interval):
                frame(clear=not args.plain)
        except KeyboardInterrupt:
            print("\ninterrupted; draining...", file=sys.stderr)
        driver.join(timeout=1.0)
    frame(clear=not args.plain)
    if args.trace:
        _write_json(args.trace, server.trace_document(), label="trace")
    report = server.report()
    if args.flight_out and report.flight_reports:
        _write_json(
            args.flight_out, report.flight_reports, label="flight dump"
        )
    if args.metrics_out:
        from repro.obs.ops import format_prometheus

        with open(args.metrics_out, "w") as fh:
            fh.write(format_prometheus(server.metrics()))
        print(f"wrote metrics {args.metrics_out}", file=sys.stderr)
    return 0 if report.slo()["failed"] == 0 else 1


def cmd_baseline(args) -> int:
    import os

    from repro.obs.baseline import (
        DEFAULT_SUITE,
        DEFAULT_TOLERANCE,
        check_baselines,
        record_baselines,
        run_scenario,
    )

    rc = 0
    report = None
    if args.action == "record":
        for path in record_baselines(args.dir):
            print(f"wrote {path}")
    else:
        tol = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        report = check_baselines(args.dir, rel_tol=tol)
        print(report.describe())
        rc = 0 if report.ok else 1

    if args.trace_dir or args.bench_out:
        from repro.obs import ChromeTraceSink, Instrumentation

        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
        scenarios = {}
        for scenario in DEFAULT_SUITE:
            sink = ChromeTraceSink()
            counters = run_scenario(scenario, observer=Instrumentation(sink))
            scenarios[scenario.id] = counters
            if args.trace_dir:
                path = os.path.join(
                    args.trace_dir, f"{scenario.id}.trace.json"
                )
                sink.write(path)
                print(f"wrote {path}", file=sys.stderr)
        if args.bench_out:
            doc = {
                "suite": [s.describe() for s in DEFAULT_SUITE],
                "counters": scenarios,
                "check": None if report is None else report.as_dict(),
            }
            with open(args.bench_out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.bench_out}", file=sys.stderr)
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matrix transposition on simulated Boolean n-cubes "
        "(Johnsson & Ho 1987 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--machine", choices=["ipsc", "cm", "custom"], default="ipsc")
        p.add_argument("-n", type=int, default=6, help="cube dimension")
        p.add_argument("--tau", type=float, default=1.0, help="custom start-up")
        p.add_argument("--t-c", dest="t_c", type=float, default=1.0)
        p.add_argument("--n-port", action="store_true")
        p.add_argument(
            "--elements", type=int, default=1 << 16, help="matrix elements (power of 2)"
        )

    def json_flag(p):
        p.add_argument(
            "--json", action="store_true", help="machine-readable JSON output"
        )

    def topology_flag(p, *, default=None):
        p.add_argument(
            "--topology",
            default=default,
            metavar="SPEC",
            help="interconnect topology: cube (default), torus:4x4x4, "
            "mesh:8x8, or dragonfly:K,M; a non-cube topology overrides "
            "-n (node count must be a power of two)",
        )

    def problem(p):
        p.add_argument(
            "--layout", choices=["2d", "1d-rows", "1d-cols"], default="2d"
        )
        p.add_argument(
            "--algorithm",
            default="auto",
            help="strategy name (default auto; e.g. spt, dpt, mpt, router)",
        )

    pa = sub.add_parser("advise", help="rank algorithms analytically (§9)")
    common(pa)
    json_flag(pa)
    pa.set_defaults(fn=cmd_advise)

    def workload_flag(p):
        p.add_argument(
            "--workload",
            default=None,
            metavar="SPEC",
            help="composite permutation pipeline instead of a plain "
            "transpose: [pipeline:]stage(+stage)*[@RxC] with stages "
            "transpose, bitrev, gray, binary, dimperm:<perm>, or the "
            "fft preset (e.g. pipeline:bitrev+transpose@13x11, "
            "fft@64x64); --elements supplies a square default shape "
            "and --algorithm is ignored",
        )

    pr = sub.add_parser("run", help="run one simulated transpose")
    common(pr)
    problem(pr)
    topology_flag(pr)
    workload_flag(pr)
    json_flag(pr)
    pr.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="reproducible fault scenario as comma-separated key=value: "
        "seed=S, link_rate=R, transient_rate=R, window=W, "
        "nodes=3+9, links=0-1+6-4 (see FaultPlan.from_spec)",
    )
    pr.add_argument(
        "--heatmap",
        action="store_true",
        help="print the per-link ASCII utilization heatmap after the run",
    )
    pr.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-phase congestion timeline after the run",
    )
    pr.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON (load in Perfetto / "
        "chrome://tracing)",
    )
    pr.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="snapshot node memories every K phases (0 = off); the "
        "run's recovery accounting lands in the --json output",
    )
    pr.set_defaults(fn=cmd_run)

    pm = sub.add_parser("machines", help="show machine presets")
    pm.add_argument("-n", type=int, default=6)
    json_flag(pm)
    pm.set_defaults(fn=cmd_machines)

    pp = sub.add_parser(
        "plan", help="compile a transpose schedule without executing payloads"
    )
    common(pp)
    problem(pp)
    topology_flag(pp)
    workload_flag(pp)
    json_flag(pp)
    pp.add_argument("--out", default=None, metavar="FILE", help="write plan JSON here")
    pp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="store the plan content-addressed in this directory "
        "(prints the key)",
    )
    pp.set_defaults(fn=cmd_plan)

    py = sub.add_parser("replay", help="execute a compiled plan")
    py.add_argument("plan", help="plan JSON file (from `repro plan --out`)")
    py.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="replay on a faulted network (see FaultPlan.from_spec)",
    )
    py.add_argument(
        "--recover",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="resume-based execution: checkpoint, back off transient "
        "faults, surgically rewrite around permanent ones; optional "
        "policy spec, e.g. every=4,surgery=off "
        "(see RecoveryPolicy.from_spec)",
    )
    py.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="checkpoint cadence in phases (with --recover overrides "
        "the policy; alone just attaches snapshotting to the replay)",
    )
    json_flag(py)
    py.set_defaults(fn=cmd_replay)

    pb = sub.add_parser(
        "batch", help="serve many transpose requests through the plan cache"
    )
    pb.add_argument(
        "requests",
        help="JSON file: array of request objects "
        '(e.g. [{"elements": 4096, "n": 4}])',
    )
    pb.add_argument(
        "--cache-dir", default=None, metavar="DIR", help="on-disk plan store"
    )
    pb.add_argument(
        "--cache-size", type=int, default=128, help="in-memory LRU capacity"
    )
    pb.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the request set this many times (later runs hit the cache)",
    )
    pb.add_argument(
        "--recover",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help="serve faulted requests resume-based instead of through "
        "the restart ladder (optional RecoveryPolicy.from_spec string)",
    )
    json_flag(pb)
    pb.set_defaults(fn=cmd_batch)

    pc = sub.add_parser(
        "chaos",
        help="soak seeded random fault plans through recovery, "
        "verifying every outcome",
    )
    pc.add_argument("-n", type=int, default=4, help="cube dimension")
    pc.add_argument(
        "--elements", type=int, default=256, help="matrix elements (power of 2)"
    )
    pc.add_argument(
        "--layout", choices=["2d", "1d-rows", "1d-cols"], default="2d"
    )
    pc.add_argument("--algorithm", default="auto")
    topology_flag(pc)
    pc.add_argument(
        "--seeds", type=int, default=50, help="fault-plan seeds 0..N-1"
    )
    pc.add_argument(
        "--modes",
        default=None,
        help="comma-separated subset of replay, cached, live "
        "(default: all three on a cube, live on other topologies)",
    )
    pc.add_argument(
        "--link-rate",
        dest="link_rate",
        type=float,
        default=0.03,
        help="permanent per-directed-link failure probability",
    )
    pc.add_argument(
        "--transient-rate",
        dest="transient_rate",
        type=float,
        default=0.10,
        help="transient per-link failure probability",
    )
    pc.add_argument(
        "--window", type=int, default=32, help="transient phase window"
    )
    pc.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="RATE",
        help="silent-corruption per-directed-link probability "
        "(checksummed delivery detects and retransmits)",
    )
    pc.add_argument(
        "--corrupt-intensity",
        dest="corrupt_intensity",
        type=float,
        default=0.4,
        metavar="RATE",
        help="per-phase strike probability on a corrupting link",
    )
    pc.add_argument(
        "--recover",
        default=None,
        metavar="SPEC",
        help="recovery policy spec (RecoveryPolicy.from_spec)",
    )
    pc.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full JSON recovery report here (CI artifact)",
    )
    pc.add_argument(
        "--verbose",
        action="store_true",
        help="stream one line per finished trial to stderr",
    )
    # -- service-level chaos (repro chaos --service) ------------------------
    pc.add_argument(
        "--service",
        action="store_true",
        help="batter the serving stack instead of the machine: kill/"
        "hang workers and inject crash/slow/poison requests under a "
        "seeded schedule, gated on the exactly-once invariant",
    )
    pc.add_argument(
        "--seed", type=int, default=11, help="service chaos schedule seed"
    )
    pc.add_argument(
        "--requests", type=int, default=48, help="service soak request count"
    )
    pc.add_argument(
        "--tenants", type=int, default=3, help="service soak tenant count"
    )
    pc.add_argument(
        "--workers", type=int, default=4, help="serving worker pool size"
    )
    pc.add_argument(
        "--kill-rate",
        dest="kill_rate",
        type=float,
        default=0.08,
        help="per-execution probability the worker is killed mid-request",
    )
    pc.add_argument(
        "--hang-rate",
        dest="hang_rate",
        type=float,
        default=0.0,
        help="per-execution probability the worker hangs (watchdog bait)",
    )
    pc.add_argument(
        "--hang-seconds",
        dest="hang_seconds",
        type=float,
        default=0.3,
        help="how long a chaos hang wedges the worker",
    )
    pc.add_argument(
        "--poison-rate",
        dest="poison_rate",
        type=float,
        default=0.04,
        help="probability a request is poisonous (kills every worker "
        "that executes it, until quarantined)",
    )
    pc.add_argument(
        "--crash-rate",
        dest="crash_rate",
        type=float,
        default=0.0,
        help="probability a request fails with a plain exception",
    )
    pc.add_argument(
        "--slow-rate",
        dest="slow_rate",
        type=float,
        default=0.0,
        help="probability an execution is slowed (stays under watchdog)",
    )
    pc.add_argument(
        "--verify-sample",
        dest="verify_sample",
        type=int,
        default=6,
        help="served requests re-run solo for bit-identity",
    )
    pc.add_argument(
        "--retries", type=int, default=2,
        help="supervisor re-dispatch attempts (0 disables retries)",
    )
    pc.add_argument(
        "--watchdog", default="0.15", metavar="SECONDS",
        help="hung-worker deadline ('off' disables; default 0.15)",
    )
    pc.add_argument(
        "--poison-threshold", dest="poison_threshold", type=int, default=2,
        help="consecutive kills before poison quarantine",
    )
    pc.add_argument(
        "--no-supervise",
        dest="no_supervise",
        action="store_true",
        help="force the supervisor off even when retries/watchdog are set",
    )
    pc.add_argument(
        "--events-out",
        dest="events_out",
        default=None,
        metavar="FILE",
        help="write the supervisor's JSON event log here (CI artifact)",
    )
    pc.add_argument(
        "--expect-worker-loss",
        dest="expect_worker_loss",
        action="store_true",
        help="pass only if the pool demonstrably lost workers (the "
        "disabled-resilience control arm)",
    )
    json_flag(pc)
    pc.set_defaults(fn=cmd_chaos)

    def server_flags(p):
        p.add_argument(
            "--config",
            default=None,
            metavar="FILE",
            help="server config as JSON (overrides the flags below)",
        )
        p.add_argument(
            "--workers", type=int, default=2, help="worker thread count"
        )
        p.add_argument(
            "--queue-capacity",
            dest="queue_capacity",
            type=int,
            default=64,
            help="admission queue depth before shedding",
        )
        p.add_argument(
            "--tenant-pending",
            dest="tenant_pending",
            type=int,
            default=16,
            help="max queued requests per tenant (0 = unlimited)",
        )
        p.add_argument(
            "--tenant-rate",
            dest="tenant_rate",
            type=float,
            default=None,
            help="per-tenant admission rate limit (requests/second)",
        )
        p.add_argument(
            "--max-batch",
            dest="max_batch",
            type=int,
            default=4,
            help="same-plan requests a worker drains per dequeue",
        )
        p.add_argument(
            "--cache-size", type=int, default=256, help="plan cache capacity"
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR", help="on-disk plan store"
        )
        p.add_argument(
            "--recover",
            default="every=4",
            metavar="SPEC",
            help="recovery policy for faulted requests "
            "(RecoveryPolicy.from_spec; default every=4)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="arm request-scoped tracing and write the merged "
            "dual-axis Perfetto trace (one track per worker) here",
        )
        p.add_argument(
            "--flight-out",
            dest="flight_out",
            default=None,
            metavar="FILE",
            help="write flight-recorder dumps from requests that ended "
            "badly (deadline miss, failure, fault escalation) here",
        )
        p.add_argument(
            "--metrics-out",
            dest="metrics_out",
            default=None,
            metavar="FILE",
            help="write a Prometheus text snapshot of the merged worker "
            "metrics after the run",
        )
        p.add_argument(
            "--metrics-port",
            dest="metrics_port",
            type=int,
            default=None,
            metavar="PORT",
            help="serve GET /metrics (Prometheus text) on this port "
            "while the server runs (0 = ephemeral)",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=2,
            help="supervisor re-dispatch attempts after a worker death "
            "(0 disables retries)",
        )
        p.add_argument(
            "--watchdog",
            default=None,
            metavar="SECONDS",
            help="declare a worker hung after one request runs this "
            "long ('off' disables; default off)",
        )
        p.add_argument(
            "--poison-threshold",
            dest="poison_threshold",
            type=int,
            default=2,
            help="consecutive worker kills before a request is "
            "quarantined as poison",
        )
        p.add_argument(
            "--breaker",
            default=None,
            metavar="SPEC",
            help="circuit-breaker policy, e.g. "
            "'window=16,threshold=0.5,cooldown=1.0,key=plan' "
            "(BreakerPolicy.from_spec; default off)",
        )
        p.add_argument(
            "--brownout",
            default=None,
            metavar="SPEC",
            help="overload brownout ladder, e.g. "
            "'slo=0.25,objective=0.9,up=1.0,down=0.25,hold=3' "
            "(BrownoutPolicy.from_spec; default off)",
        )

    ps = sub.add_parser(
        "serve",
        help="serve a file of tenant transpose requests through the "
        "multi-tenant serving layer",
    )
    ps.add_argument(
        "requests",
        help="JSON file: array of request objects; problem fields plus "
        'optional "tenant", "priority", "deadline" '
        '(e.g. [{"tenant": "a", "elements": 4096, "n": 4}])',
    )
    server_flags(ps)
    ps.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help="default interconnect applied to requests that don't name "
        "one (cube, torus:4x4x4, mesh:8x8, dragonfly:K,M)",
    )
    ps.add_argument(
        "--outcomes",
        action="store_true",
        help="include the per-request outcome list in --json output",
    )
    ps.add_argument(
        "--verbose",
        action="store_true",
        help="log shed requests to stderr",
    )
    json_flag(ps)
    ps.set_defaults(fn=cmd_serve)

    pg = sub.add_parser(
        "loadgen",
        help="drive a server with seeded synthetic multi-tenant traffic "
        "and spot-check outcomes bit-identically against solo runs",
    )
    pg.add_argument("--seed", type=int, default=7, help="workload seed")
    pg.add_argument(
        "--tenants", type=int, default=4, help="tenant count (round-robin)"
    )
    pg.add_argument(
        "--requests", type=int, default=200, help="total request count"
    )
    pg.add_argument(
        "--mode",
        choices=["closed", "open"],
        default="closed",
        help="closed: one waiting client per tenant; open: seeded "
        "arrival schedule that never waits (drives shedding)",
    )
    pg.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="open-loop offered load (requests/second)",
    )
    pg.add_argument(
        "--shapes", type=int, default=4, help="distinct problem shapes"
    )
    pg.add_argument("-n", type=int, default=4, help="cube dimension")
    pg.add_argument(
        "--machine", choices=["ipsc", "cm"], default="cm"
    )
    pg.add_argument(
        "--fault-rate",
        dest="fault_rate",
        type=float,
        default=0.0,
        help="probability a request carries a seeded fault spec",
    )
    pg.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="relative deadline in seconds applied to every request",
    )
    pg.add_argument(
        "--verify-sample",
        dest="verify_sample",
        type=int,
        default=8,
        help="served fault-free requests re-run solo for bit-identity",
    )
    pg.add_argument(
        "--request-timeout",
        dest="request_timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="closed-loop client patience per request; expiries are "
        "counted separately in the report (default 120)",
    )
    pg.add_argument(
        "--workload",
        default=None,
        metavar="SPEC",
        help="mix composite-pipeline requests into the stream "
        "(repro.workloads grammar, e.g. fft@64x64)",
    )
    pg.add_argument(
        "--workload-every",
        dest="workload_every",
        type=int,
        default=4,
        metavar="K",
        help="every k-th request becomes a --workload pipeline "
        "request (default 4; only meaningful with --workload)",
    )
    pg.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the full JSON load report here (CI artifact)",
    )
    server_flags(pg)
    json_flag(pg)
    pg.set_defaults(fn=cmd_loadgen)

    pt = sub.add_parser(
        "top",
        help="drive a seeded soak and repaint a live ASCII ops "
        "dashboard (throughput, queue depth, SLO burn, per-tenant "
        "table) while it runs",
    )
    pt.add_argument("--seed", type=int, default=7, help="workload seed")
    pt.add_argument(
        "--tenants", type=int, default=4, help="tenant count (round-robin)"
    )
    pt.add_argument(
        "--requests", type=int, default=400, help="total request count"
    )
    pt.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="drive mode (see loadgen)",
    )
    pt.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop offered load (requests/second)",
    )
    pt.add_argument(
        "--shapes", type=int, default=4, help="distinct problem shapes"
    )
    pt.add_argument("-n", type=int, default=4, help="cube dimension")
    pt.add_argument("--machine", choices=["ipsc", "cm"], default="cm")
    pt.add_argument(
        "--fault-rate", dest="fault_rate", type=float, default=0.0,
        help="probability a request carries a seeded fault spec",
    )
    pt.add_argument(
        "--deadline", type=float, default=None,
        help="relative deadline in seconds applied to every request",
    )
    pt.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between dashboard repaints",
    )
    pt.add_argument(
        "--plain", action="store_true",
        help="append frames instead of repainting (no ANSI clear; "
        "for logs and dumb terminals)",
    )
    server_flags(pt)
    pt.set_defaults(fn=cmd_top)

    pl = sub.add_parser(
        "baseline",
        help="record or check the pinned perf-regression suite",
    )
    pl.add_argument(
        "action",
        choices=["record", "check"],
        help="record: snapshot counters; check: diff against snapshots",
    )
    pl.add_argument(
        "--dir",
        default="benchmarks/baselines",
        help="baseline snapshot directory (default benchmarks/baselines)",
    )
    pl.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative tolerance for check (default: exact up to float "
        "accumulation slack)",
    )
    pl.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="also export one Chrome trace JSON per scenario here",
    )
    pl.add_argument(
        "--bench-out",
        default=None,
        metavar="FILE",
        help="write a machine-readable suite summary (e.g. BENCH_obs.json)",
    )
    pl.set_defaults(fn=cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
