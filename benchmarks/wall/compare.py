"""Judge one set of ``run`` results against another by the bounds in
``BENCHMARK.json``."""

from __future__ import annotations

from benchmarks.wall import spec

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def worsening(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``: a share of ``base``, or
    the absolute rise for a metric whose bound is 0."""
    rise = new - base if metric["better"] == "lower" else base - new
    return rise if metric["bound"] == 0 else rise / base


def judge(metric: dict, base: float, new: float, noisy: bool) -> str:
    """``ok`` within the bound; beyond it ``regressed`` — or
    ``unresolved`` when the host-noise guard flagged either run, because
    the difference cannot then be told from the host's own drift."""
    if worsening(metric, base, new) <= metric["bound"]:
        return OK
    return UNRESOLVED if noisy else REGRESSED


def rows(base_doc: dict, new_doc: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) of either set.

    ``run`` leaves a workload that crashed or timed out of its result
    set, so a workload missing from the new set is ``regressed`` and one
    missing from the base ``unresolved``: neither may pass silently.
    Sets of different run lengths are refused (``ValueError``).
    """
    if base_doc["seconds"] != new_doc["seconds"]:
        raise ValueError(
            f"run lengths differ: {base_doc['seconds']} s against {new_doc['seconds']} s"
        )
    metrics = {**spec.end_to_end(), spec.ERROR_RATE["name"]: spec.ERROR_RATE}
    out = []
    for workload in dict.fromkeys([*base_doc["workloads"], *new_doc["workloads"]]):
        base = base_doc["workloads"].get(workload)
        new = new_doc["workloads"].get(workload)
        if base is None or new is None:
            out.append(
                {
                    "workload": workload,
                    "metric": "(no result in A)" if base is None else "(no result in B)",
                    "unit": "-",
                    "base": None,
                    "new": None,
                    "ratio": None,
                    "verdict": UNRESOLVED if base is None else REGRESSED,
                }
            )
            continue
        noisy = bool(base.get("noisy") or new.get("noisy"))
        for name, metric in metrics.items():
            a, b = value(base, name), value(new, name)
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": a,
                    "new": b,
                    "ratio": b / a if a else None,
                    "verdict": judge(metric, a, b, noisy),
                }
            )
    return out


def value(doc: dict, name: str) -> float:
    if name == spec.ERROR_RATE["name"]:
        return doc["error_rate"]
    return doc["metrics"][name]["value"]


def render(table: list[dict]) -> str:
    def cell(number, form: str) -> str:
        return "-" if number is None else format(number, form)

    lines = [
        f"{'workload':16s} {'metric':18s} {'base (A)':>12s} {'new (B)':>12s} "
        f"{'B/A':>7s}  verdict"
    ]
    for row in table:
        lines.append(
            f"{row['workload']:16s} {row['metric']:18s} {cell(row['base'], '12.4f'):>12s} "
            f"{cell(row['new'], '12.4f'):>12s} {cell(row['ratio'], '.3f'):>7s}  "
            f"{row['verdict']}  [{row['unit']}]"
        )
    return "\n".join(lines)


def exit_code(table: list[dict]) -> int:
    """0 all ok, 1 something regressed, 2 nothing regressed but something
    unresolved."""
    verdicts = {row["verdict"] for row in table}
    if REGRESSED in verdicts:
        return 1
    return 2 if UNRESOLVED in verdicts else 0
