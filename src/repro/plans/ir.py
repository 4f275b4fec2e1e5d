"""The compiled-schedule intermediate representation.

The paper's algorithms are *static* phase schedules: for a fixed layout
pair, machine and algorithm, every message of every phase is determined
before any data moves (§4-§5 build the paths, §6 the schedules).  A
:class:`CompiledPlan` materializes one such schedule as an immutable,
JSON-serializable sequence of typed operations plus provenance — the
layout pair, the machine constants, the algorithm and the code version
that produced it.  A plan is *payload-free*: it names blocks by key and
size only, so replaying it on virtual blocks reproduces the exact cost
accounting of the original run without allocating or moving any matrix
data.

Operations
----------
``PhaseOp``
    One communication phase: the explicit message list (source,
    destination, block keys, element count) and the ``exclusive`` flag
    under which it originally ran, so the engine re-checks the paper's
    edge-disjointness lemmas on every replay.
``PlaceOp`` / ``CollectOp``
    A block deposited into / popped out of a node memory by the
    algorithm (initial distribution, final collection, staging).
``CopyOp`` / ``LocalOp``
    Concurrent local work charged through ``charge_copy`` /
    ``execute_local``, with the per-node costs preserved.
``IdleOp``
    A zero-duration phase that only advances the phase clock.
``RemapOp``
    A node relabeling ``x -> x ^ mask`` applied to all subsequent
    operations.  XOR-translation is a cube automorphism, so a plan
    compiled for one node numbering replays — with identical modelled
    cost — on any translate of it (COSTA-style processor relabeling).

Serialization is canonical: keys are sorted, floats round-trip exactly,
and tuples map to JSON arrays, so ``loads(dumps(plan)) == plan`` and the
content fingerprint is stable across sessions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Union

import numpy as np

from repro.layout.fields import Layout, ProcField
from repro.machine.params import MachineParams, PortModel

__all__ = [
    "PLAN_FORMAT_VERSION",
    "CollectOp",
    "CompiledPlan",
    "CopyOp",
    "IdleOp",
    "LayoutSpec",
    "LocalOp",
    "MachineSpec",
    "PhaseOp",
    "PlaceOp",
    "PlanError",
    "PlanMessage",
    "PlanOp",
    "RemapOp",
    "canonical_key",
]

#: Bumped whenever the serialized layout of a plan changes; plans with a
#: different format version are refused rather than misinterpreted.
PLAN_FORMAT_VERSION = 1


class PlanError(ValueError):
    """A plan could not be serialized, parsed or validated."""


# -- block keys -----------------------------------------------------------------


def canonical_key(key: Hashable) -> Hashable:
    """Normalize a block key so it survives a JSON round trip unchanged.

    Tuples become tuples of canonical components, NumPy integers become
    Python ints; strings, ints, floats, bools and ``None`` pass through.
    Anything else is not representable and raises :class:`PlanError`.
    """
    if isinstance(key, tuple):
        return tuple(canonical_key(k) for k in key)
    if isinstance(key, (np.integer,)):
        return int(key)
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    raise PlanError(
        f"block key {key!r} of type {type(key).__name__} is not "
        "JSON-representable; plans support ints, strings, floats, bools, "
        "None and (nested) tuples of those"
    )


def _encode_key(key: Hashable):
    if isinstance(key, tuple):
        return [_encode_key(k) for k in key]
    return key


def _decode_key(obj) -> Hashable:
    if isinstance(obj, list):
        return tuple(_decode_key(o) for o in obj)
    return obj


# -- provenance -----------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """The machine constants a plan was compiled against.

    ``topology`` is the canonical interconnect spec
    (:attr:`repro.topology.base.Topology.spec`); ``"cube"`` — the only
    value earlier releases could produce — is the default and is
    omitted from the serialized form, so every previously written plan
    (and its content fingerprint) is unchanged.
    """

    n: int
    tau: float
    t_c: float
    packet_capacity: int
    t_copy: float
    port_model: str
    pipelined: bool
    name: str = "custom"
    topology: str = "cube"

    @classmethod
    def from_params(
        cls, params: MachineParams, *, topology: str = "cube"
    ) -> "MachineSpec":
        return cls(
            n=params.n,
            tau=float(params.tau),
            t_c=float(params.t_c),
            packet_capacity=params.packet_capacity,
            t_copy=float(params.t_copy),
            port_model=params.port_model.value,
            pipelined=params.pipelined,
            name=params.name,
            topology=topology,
        )

    def to_params(self) -> MachineParams:
        return MachineParams(
            n=self.n,
            tau=self.tau,
            t_c=self.t_c,
            packet_capacity=self.packet_capacity,
            t_copy=self.t_copy,
            port_model=PortModel(self.port_model),
            pipelined=self.pipelined,
            name=self.name,
        )

    def compatible_with(self, params: MachineParams) -> bool:
        """Cost-model equality; the display name is irrelevant."""
        return (
            self.n == params.n
            and self.tau == params.tau
            and self.t_c == params.t_c
            and self.packet_capacity == params.packet_capacity
            and self.t_copy == params.t_copy
            and self.port_model == params.port_model.value
            and self.pipelined == params.pipelined
        )

    def as_dict(self, *, with_name: bool = True) -> dict:
        d = {
            "n": self.n,
            "tau": self.tau,
            "t_c": self.t_c,
            "packet_capacity": self.packet_capacity,
            "t_copy": self.t_copy,
            "port_model": self.port_model,
            "pipelined": self.pipelined,
        }
        if self.topology != "cube":
            d["topology"] = self.topology
        if with_name:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "MachineSpec":
        return cls(
            n=d["n"],
            tau=d["tau"],
            t_c=d["t_c"],
            packet_capacity=d["packet_capacity"],
            t_copy=d["t_copy"],
            port_model=d["port_model"],
            pipelined=d["pipelined"],
            name=d.get("name", "custom"),
            topology=d.get("topology", "cube"),
        )


@dataclass(frozen=True)
class LayoutSpec:
    """A serializable description of one side of the layout pair."""

    p: int
    q: int
    fields: tuple[tuple[tuple[int, ...], bool], ...]
    name: str = "layout"

    @classmethod
    def from_layout(cls, layout: Layout) -> "LayoutSpec":
        return cls(
            p=layout.p,
            q=layout.q,
            fields=tuple((tuple(f.dims), f.gray) for f in layout.fields),
            name=layout.name,
        )

    def to_layout(self) -> Layout:
        return Layout(
            self.p,
            self.q,
            tuple(ProcField(dims, gray) for dims, gray in self.fields),
            self.name,
        )

    def as_dict(self, *, with_name: bool = True) -> dict:
        d = {
            "p": self.p,
            "q": self.q,
            "fields": [[list(dims), gray] for dims, gray in self.fields],
        }
        if with_name:
            d["name"] = self.name
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "LayoutSpec":
        return cls(
            p=d["p"],
            q=d["q"],
            fields=tuple(
                (tuple(dims), bool(gray)) for dims, gray in d["fields"]
            ),
            name=d.get("name", "layout"),
        )


# -- operations -----------------------------------------------------------------


@dataclass(frozen=True)
class PlanMessage:
    """One neighbour-to-neighbour transfer within a phase."""

    src: int
    dst: int
    elements: int
    keys: tuple[Hashable, ...]


@dataclass(frozen=True)
class PhaseOp:
    """One communication phase with its explicit message list."""

    messages: tuple[PlanMessage, ...]
    exclusive: bool = False


@dataclass(frozen=True)
class PlaceOp:
    """A block of ``size`` elements deposited into a node memory."""

    node: int
    size: int
    key: Hashable


@dataclass(frozen=True)
class CollectOp:
    """A block popped out of a node memory by the algorithm."""

    node: int
    key: Hashable


@dataclass(frozen=True)
class CopyOp:
    """A concurrent buffer copy charged via ``charge_copy``."""

    per_node: tuple[tuple[int, int], ...]  # (node, elements), node-sorted


@dataclass(frozen=True)
class LocalOp:
    """Concurrent local work charged via ``execute_local``."""

    costs: Union[float, tuple[tuple[int, float], ...]]
    elements: Union[None, int, tuple[tuple[int, int], ...]] = None


@dataclass(frozen=True)
class IdleOp:
    """A zero-duration phase advancing the phase clock (stall rounds)."""


@dataclass(frozen=True)
class RemapOp:
    """Relabel every subsequent node id by XOR with ``mask``."""

    mask: int


PlanOp = Union[PhaseOp, PlaceOp, CollectOp, CopyOp, LocalOp, IdleOp, RemapOp]


def _encode_op(op: PlanOp) -> list:
    if isinstance(op, PhaseOp):
        return [
            "phase",
            1 if op.exclusive else 0,
            [
                [m.src, m.dst, m.elements, _encode_key(list(m.keys))]
                for m in op.messages
            ],
        ]
    if isinstance(op, PlaceOp):
        return ["place", op.node, op.size, _encode_key(op.key)]
    if isinstance(op, CollectOp):
        return ["collect", op.node, _encode_key(op.key)]
    if isinstance(op, CopyOp):
        return ["copy", [[n, c] for n, c in op.per_node]]
    if isinstance(op, LocalOp):
        costs = (
            op.costs
            if isinstance(op.costs, float)
            else [[n, c] for n, c in op.costs]
        )
        elements = (
            op.elements
            if op.elements is None or isinstance(op.elements, int)
            else [[n, c] for n, c in op.elements]
        )
        return ["local", costs, elements]
    if isinstance(op, IdleOp):
        return ["idle"]
    if isinstance(op, RemapOp):
        return ["remap", op.mask]
    raise PlanError(f"unknown plan op {op!r}")


def _decode_op(obj) -> PlanOp:
    try:
        tag = obj[0]
        if tag == "phase":
            return PhaseOp(
                messages=tuple(
                    PlanMessage(m[0], m[1], m[2], tuple(_decode_key(m[3])))
                    for m in obj[2]
                ),
                exclusive=bool(obj[1]),
            )
        if tag == "place":
            return PlaceOp(obj[1], obj[2], _decode_key(obj[3]))
        if tag == "collect":
            return CollectOp(obj[1], _decode_key(obj[2]))
        if tag == "copy":
            return CopyOp(tuple((n, c) for n, c in obj[1]))
        if tag == "local":
            costs = (
                float(obj[1])
                if isinstance(obj[1], (int, float))
                else tuple((n, float(c)) for n, c in obj[1])
            )
            elements = obj[2]
            if isinstance(elements, list):
                elements = tuple((n, c) for n, c in elements)
            return LocalOp(costs, elements)
        if tag == "idle":
            return IdleOp()
        if tag == "remap":
            return RemapOp(obj[1])
    except (IndexError, TypeError, KeyError) as exc:
        raise PlanError(f"malformed plan op {obj!r}") from exc
    raise PlanError(f"unknown plan op tag {obj!r}")


# -- the plan -------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPlan:
    """An immutable, replayable schedule with provenance.

    ``algorithm`` is the strategy that actually executed; ``requested``
    the one originally asked for (they differ when the planner degraded
    around faults at capture time).  ``dtype`` records the payload dtype
    the capture ran with — replay is payload-free, but the fingerprint
    pins it so a cache key never silently aliases two element widths.
    """

    algorithm: str
    machine: MachineSpec
    before: LayoutSpec
    after: LayoutSpec
    ops: tuple[PlanOp, ...]
    requested: str = ""
    comm_class: str = ""
    dtype: str = "float64"
    code_version: str = "unknown"
    format_version: int = PLAN_FORMAT_VERSION

    def __post_init__(self) -> None:
        if not self.requested:
            object.__setattr__(self, "requested", self.algorithm)
        if not isinstance(self.ops, tuple):
            object.__setattr__(self, "ops", tuple(self.ops))

    # -- shape ------------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, (PhaseOp, IdleOp)))

    @property
    def num_messages(self) -> int:
        return sum(
            len(op.messages) for op in self.ops if isinstance(op, PhaseOp)
        )

    @property
    def total_message_elements(self) -> int:
        return sum(
            m.elements
            for op in self.ops
            if isinstance(op, PhaseOp)
            for m in op.messages
        )

    def describe(self) -> str:
        where = (
            f"a {self.machine.n}-cube"
            if self.machine.topology == "cube"
            else self.machine.topology
        )
        return (
            f"{self.algorithm} plan: {len(self.ops)} ops, "
            f"{self.num_phases} phases, {self.num_messages} messages, "
            f"{self.total_message_elements} element-hops on "
            f"{where} ({self.machine.port_model})"
        )

    # -- relabeling -------------------------------------------------------

    def relabeled(self, mask: int) -> "CompiledPlan":
        """The same schedule under the cube automorphism ``x -> x ^ mask``.

        XOR-translation preserves edges, loads and therefore modelled
        cost exactly; only the node ids (not the block keys) change.
        XOR by a constant is an automorphism of the Boolean cube only,
        so relabeling a plan compiled for another topology is refused.
        """
        if self.machine.topology != "cube":
            raise PlanError(
                "XOR relabeling is a cube automorphism; plan was compiled "
                f"for topology {self.machine.topology!r}"
            )
        if not 0 <= mask < (1 << self.machine.n):
            raise PlanError(
                f"relabel mask {mask} outside the {self.machine.n}-cube"
            )
        if mask == 0:
            return self
        return CompiledPlan(
            algorithm=self.algorithm,
            machine=self.machine,
            before=self.before,
            after=self.after,
            ops=(RemapOp(mask), *self.ops),
            requested=self.requested,
            comm_class=self.comm_class,
            dtype=self.dtype,
            code_version=self.code_version,
            format_version=self.format_version,
        )

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "code_version": self.code_version,
            "algorithm": self.algorithm,
            "requested": self.requested,
            "comm_class": self.comm_class,
            "dtype": self.dtype,
            "machine": self.machine.as_dict(),
            "before": self.before.as_dict(),
            "after": self.after.as_dict(),
            "ops": [_encode_op(op) for op in self.ops],
        }

    def dumps(self, *, indent: int | None = None) -> str:
        """Canonical JSON text: sorted keys, exact float round-trip."""
        return json.dumps(
            self.to_json_dict(),
            sort_keys=True,
            indent=indent,
            separators=(",", ":") if indent is None else None,
        )

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "CompiledPlan":
        version = d.get("format_version")
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"plan format version {version!r} is not supported "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        try:
            return cls(
                algorithm=d["algorithm"],
                machine=MachineSpec.from_dict(d["machine"]),
                before=LayoutSpec.from_dict(d["before"]),
                after=LayoutSpec.from_dict(d["after"]),
                ops=tuple(_decode_op(o) for o in d["ops"]),
                requested=d.get("requested", ""),
                comm_class=d.get("comm_class", ""),
                dtype=d.get("dtype", "float64"),
                code_version=d.get("code_version", "unknown"),
                format_version=version,
            )
        except (KeyError, TypeError) as exc:
            raise PlanError(f"malformed plan document: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "CompiledPlan":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"plan is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise PlanError("plan document must be a JSON object")
        return cls.from_json_dict(d)

    @cached_property
    def fingerprint(self) -> str:
        """Stable content address of the full plan (sha256 hex).

        Computed once per plan object: the plan is immutable, so its
        canonical JSON never changes.
        """
        return hashlib.sha256(self.dumps().encode()).hexdigest()
