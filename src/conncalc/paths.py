"""Path enumeration and connection-graph maintenance.

Connections are traversed as undirected edges: src/dst record authoring
order, not direction. Besides path search this module maintains the closure
law (every entity carries a self-connection and every entity pair is joined
by at least one connection, silently if nothing real is known) and the
blocking and confirmation life cycle of individual connections. One scan
finds what the law lacks; ``law_holds`` and ``silent_closure`` share it.
Path search walks the scenario's pair index, ``Scenario.real_links`` or,
with silent connections, ``Scenario.links``.
"""

from __future__ import annotations

__all__ = [
    "Path", "block", "confirm_silent", "find_paths", "law_holds", "silent_closure", "unblock",
]

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import IntegrityError, StateError, ValidationError
from .model import Connection, ConnectionKind, Scenario, _best_links, _new_connection, _number_text

_ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class Path:
    """An entity sequence plus the connection chosen for each hop."""

    entities: tuple[str, ...]
    hops: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.entities:
            raise ValidationError("a path needs at least one entity")
        # A single-entity path is the trivial loop over one self-connection.
        expected = 1 if len(self.entities) == 1 else len(self.entities) - 1
        if len(self.hops) != expected:
            raise ValidationError("hop count must match the entity sequence")


@dataclass(frozen=True, slots=True)
class PathsReport:
    """The paths found from src to dst within max_hops, in search order."""

    src: str
    dst: str
    max_hops: int
    paths: tuple[Path, ...]


def find_paths(
    scenario: Scenario,
    src: str,
    dst: str,
    max_hops: int,
    *,
    include_silent: bool = False,
) -> list[Path]:
    """All simple paths from src to dst using at most max_hops connections.

    Edges are undirected and blocked connections never participate. Silent
    connections join the graph only when include_silent is set;
    self-connections never extend a path between distinct entities. Each
    distinct entity sequence yields one Path, carrying for every hop the
    highest-valued eligible connection (ties to the smallest id). Results
    are ordered shortest first, then lexicographically by entity sequence.

    When src == dst the only admissible path is the trivial one over an
    unblocked self-connection, if the entity has one. The scenario must be
    valid: a connection's kind is read from its endpoints.
    """
    scenario.entity(src)
    scenario.entity(dst)
    if type(max_hops) is not int or max_hops < 1:
        raise ValueError(f"max_hops must be a positive integer, got {max_hops!r}")

    if src == dst:
        loop = scenario.links.get(src, {}).get(src)
        return [] if loop is None else [Path(entities=(src,), hops=(loop.id,))]

    links = scenario.links if include_silent else scenario.real_links
    # Depth first with an explicit stack; the sort below fixes the order. A
    # trail never holds dst: the hop to dst is one lookup, and the other
    # neighbours are scanned only while a further hop fits.
    sequences: list[tuple[str, ...]] = []
    stack = [(src,)]
    while stack:
        trail = stack.pop()
        neighbours = links.get(trail[-1], {})
        if dst in neighbours:
            sequences.append((*trail, dst))
        if len(trail) < max_hops:
            for nxt in neighbours:
                if nxt != dst and nxt not in trail:
                    stack.append((*trail, nxt))
    sequences.sort(key=lambda seq: (len(seq), seq))
    return [
        Path(entities=seq, hops=tuple(links[a][b].id for a, b in zip(seq, seq[1:])))
        for seq in sequences
    ]


def _closure_gaps(scenario: Scenario):
    """Yield what the connection law lacks, in the order closure adds it.

    First ``(SELF, a, a)`` for every entity without a self-connection, then
    ``(SILENT, a, b)`` for every unjoined pair, ``a`` before ``b`` in id
    order. Blocked connections still count: blocking suppresses a
    connection's value, it does not erase the connection.
    """
    self_kind, silent = ConnectionKind.SELF, ConnectionKind.SILENT  # read once each
    with_self = {c.src for c in scenario.connections if c.kind is self_kind}
    for entity in scenario.entities:
        if entity.id not in with_self:
            yield self_kind, entity.id, entity.id
    joined = _best_links([c for c in scenario.connections if c.src != c.dst])
    ids = [e.id for e in scenario.entities]
    for i, a in enumerate(ids):
        neighbours = joined.get(a, {})
        for b in ids[i + 1 :]:
            if b not in neighbours:
                yield silent, a, b


def law_holds(scenario: Scenario) -> bool:
    """True when every entity has a self-connection and every pair is joined."""
    return next(_closure_gaps(scenario), None) is None


def _fresh_id(base: str, used: set[str]) -> str:
    n = 0
    while f"{base}:{n}" in used:
        n += 1
    fresh = f"{base}:{n}"
    used.add(fresh)
    return fresh


def silent_closure(scenario: Scenario) -> Scenario:
    """Materialize the connection law by adding silent placeholders.

    Every entity without a self-connection gains one (polarity +1,
    magnitude 1) and every unjoined entity pair gains a silent connection
    (polarity -1, magnitude 1, endpoints in lexicographic order). Generated
    ids have the shape ``sc:<src>:<dst>:<n>``. The operation is idempotent:
    a scenario already satisfying the law is returned unchanged.
    """
    used = {c.id for c in scenario.connections}
    additions = tuple(
        _new_connection(
            _fresh_id(f"sc:{a}:{b}", used), a, b, kind,
            1 if a == b else -1, _ONE, 0, False, False,  # +1 on a self-connection
        )
        for kind, a, b in _closure_gaps(scenario)
    )
    if not additions:
        return scenario
    return replace(scenario, connections=scenario.connections + additions)


def _set_blocked(scenario: Scenario, connection_id: str, flag: bool) -> Scenario:
    conn = scenario.connection(connection_id)
    if conn.blocked == flag:
        return scenario
    updated = replace(conn, blocked=flag)
    connections = tuple(updated if c.id == connection_id else c for c in scenario.connections)
    return replace(scenario, connections=connections)


def block(scenario: Scenario, connection_id: str) -> Scenario:
    """Mark a connection blocked; its value becomes 0 until unblocked."""
    return _set_blocked(scenario, connection_id, True)


def unblock(scenario: Scenario, connection_id: str) -> Scenario:
    """Clear a connection's blocked mark."""
    return _set_blocked(scenario, connection_id, False)


def confirm_silent(scenario: Scenario, connection_id: str, observed_polarity: int) -> Scenario:
    """Confirm a silent connection by observation.

    The silent connection is kept and marked confirmed, and a real
    connection with the observed polarity and the same endpoints, magnitude,
    and time index is added under the id ``rc:<silent id>``. Confirming a
    non-silent or already confirmed connection is a state error.
    """
    conn = scenario.connection(connection_id)
    if conn.kind is not ConnectionKind.SILENT:
        raise StateError(f"connection {connection_id!r} is not silent")
    if conn.confirmed:
        raise StateError(f"silent connection {connection_id!r} is already confirmed")
    if type(observed_polarity) is not int or observed_polarity not in (1, -1):
        shown = _number_text(observed_polarity, repr)
        raise ValidationError(f"observed polarity must be 1 or -1, got {shown}")
    real_id = f"rc:{connection_id}"
    if scenario.has_connection(real_id):
        raise IntegrityError(f"connection id already in use: {real_id!r}")
    confirmed = replace(conn, confirmed=True)
    real = Connection(
        id=real_id,
        src=conn.src,
        dst=conn.dst,
        kind=ConnectionKind.REAL,
        polarity=observed_polarity,
        magnitude=conn.magnitude,
        time_index=conn.time_index,
    )
    connections = tuple(confirmed if c.id == connection_id else c for c in scenario.connections)
    return replace(scenario, connections=connections + (real,))
