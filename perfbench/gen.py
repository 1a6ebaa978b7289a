"""Seeded scenario generator for the benchmark (standard library only).

Every file is a pure function of (workload, seed, index): the same seed
always yields the same bytes. Documents are written in the canonical layout
conncalc itself produces (fixed key order, two-space indent, ASCII, defaults
omitted, entities and connections sorted by id), so the program reads them
exactly as it would read its own output.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Canonical decimal strings, so every number is already in shortest exact form.
MAGNITUDES = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "1.5", "2.5", "7.25", "9.5")
ATTRIBUTES = ("0.1", "0.2", "0.25", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "0.95")
DEFECTS = ("dangling", "magnitude", "polarity")

# Input sizes per workload, one file per entry; a job takes one file through
# the workload's command script, and a round takes every file once.
#   analyze:   connections per file, one entity per ten connections
#   ablate:    connections per file
#   transform: entities per file, about four connections per entity
SIZES = {
    "analyze": (1000, 1000, 2000, 2000, 3000, 4000, 10000),
    "ablate": (100, 100, 100, 100, 150, 150, 200, 200, 300, 400),
    "transform": (60, 60, 80, 100, 120, 150),
}
# Small enough for the benchmark's own smoke test to finish in seconds.
TINY_SIZES = {"analyze": (100, 200), "ablate": (20, 30), "transform": (8, 12)}


def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _entity(rng: random.Random, entity_id: str, hidden_share: float) -> dict:
    roll = rng.random()
    kind = "known"
    if roll < hidden_share:
        kind = "hidden" if roll < hidden_share * 2 / 3 else "unknown"
    doc: dict = {"id": entity_id, "kind": kind}
    if rng.random() < 0.2:
        doc["attributes"] = {
            key: rng.choice(ATTRIBUTES)
            for key in ("existence", "inner_state", "external_state", "communication_state")
        }
    return doc


def _connection(
    rng: random.Random,
    conn_id: str,
    ids: list[str],
    silent_share: float,
    blocked_share: float,
    self_share: float,
) -> dict:
    src = rng.choice(ids)
    if rng.random() < self_share:
        dst, kind = src, "self"
    else:
        dst = rng.choice(ids)
        while dst == src:
            dst = rng.choice(ids)
        kind = "silent" if rng.random() < silent_share else "real"
    doc: dict = {
        "id": conn_id,
        "src": src,
        "dst": dst,
        "kind": kind,
        "polarity": 1 if rng.random() < 0.6 else -1,
        "magnitude": rng.choice(MAGNITUDES),
    }
    if rng.random() < 0.2:
        doc["time_index"] = rng.randint(1, 50)
    if rng.random() < blocked_share:
        doc["blocked"] = True
    if kind == "silent" and rng.random() < 0.05:
        doc["confirmed"] = True
    return doc


def scenario_doc(
    rng: random.Random,
    n_entities: int,
    n_connections: int,
    *,
    silent_share: float,
    blocked_share: float,
    desired: bool,
) -> dict:
    """One random scenario document; the host is the first entity."""
    width = len(str(n_entities))
    ids = [f"e{i:0{width}d}" for i in range(n_entities)]
    entities = [_entity(rng, eid, 0.15) for eid in ids]
    entities[0]["kind"] = "known"
    cwidth = len(str(n_connections))
    connections = [
        _connection(rng, f"c{i:0{cwidth}d}", ids, silent_share, blocked_share, 0.02)
        for i in range(n_connections)
    ]
    doc: dict = {"version": 1, "host": ids[0], "mode": "raw"}
    if desired:
        doc["desired_connectivity"] = str(rng.randint(n_connections, 5 * n_connections))
    doc["entities"] = entities
    doc["connections"] = connections
    return doc


def defective_doc(doc: dict, defect: str, rng: random.Random) -> tuple[dict, str]:
    """A copy of ``doc`` with one seeded defect, plus the diagnostic location it must raise."""
    bad = json.loads(json.dumps(doc))
    index = rng.randrange(len(bad["connections"]))
    conn = bad["connections"][index]
    if defect == "dangling":
        conn["dst"] = "missing-entity"
        if conn["kind"] == "self":
            conn["kind"] = "real"
        return bad, f"{conn['id']}.dst"
    if defect == "magnitude":
        conn["magnitude"] = "11"
        return bad, f"{conn['id']}.magnitude"
    conn["polarity"] = 0
    return bad, f"connections[{index}].polarity"


def _pick_target(rng: random.Random, doc: dict) -> str:
    """An entity other than the host that some connection touches."""
    host = doc["host"]
    touched = {c["src"] for c in doc["connections"]} | {c["dst"] for c in doc["connections"]}
    return rng.choice(sorted(touched - {host}))


def generate(workload: str, seed: int, out_dir: Path, sizes=None) -> list[dict]:
    """Write the workload's input files under ``out_dir``; return one job spec per file.

    A job spec names the files and the argument lists of its commands,
    with the exit code each must return.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, size in enumerate(SIZES[workload] if sizes is None else sizes):
        rng = random.Random(f"conncalc-perfbench:{workload}:{seed}:{index}")
        name = f"{workload}-{index:02d}"
        path = out_dir / f"{name}.json"
        job: dict = {"name": name, "file": str(path)}
        if workload == "analyze":
            doc = scenario_doc(
                rng, size // 10, size, silent_share=0.3, blocked_share=0.1, desired=True
            )
            defect = DEFECTS[index % len(DEFECTS)]
            bad, location = defective_doc(doc, defect, rng)
            bad_path = out_dir / f"{name}.bad.json"
            bad_path.write_text(_canonical(bad), encoding="ascii")
            target = _pick_target(rng, doc)
            f = str(path)
            job["defect"] = {"file": str(bad_path), "location": location}
            job["commands"] = [
                (["validate", f], 0),
                (["score", f], 0),
                (["score", f, "--mode", "impact"], 0),
                (["quality", f], 0),
                (["confusion", f], 0),
                (["--format", "json", "score", f], 0),
                (["paths", f, "--from", doc["host"], "--to", target, "--max-hops", "3"], 0),
                (["validate", str(bad_path)], 1),
            ]
        elif workload == "ablate":
            doc = scenario_doc(
                rng, max(8, size // 10), size, silent_share=0.3, blocked_share=0.1, desired=False
            )
            unblocked = [c["id"] for c in doc["connections"] if not c.get("blocked")]
            ids = [e["id"] for e in doc["entities"]]
            src, dst = rng.sample(ids, 2)
            spec = {
                "blocked": rng.choice(unblocked),
                "connection": {
                    "id": "replacement",
                    "src": src,
                    "dst": dst,
                    "kind": "real",
                    "polarity": 1,
                    "magnitude": rng.choice(MAGNITUDES),
                },
            }
            f = str(path)
            job["replace"] = spec
            job["commands"] = [
                (["ablate", f, "--order", "least-first"], 0),
                (["--format", "json", "ablate", f, "--order", "most-first"], 0),
                (["ablate", f, "--order", "least-first", "--replace", json.dumps(spec)], 0),
            ]
        elif workload == "transform":
            doc = scenario_doc(
                rng, size, 4 * size, silent_share=0.3, blocked_share=0.1, desired=False
            )
            out = str(out_dir / f"{name}.closed.json")
            target = _pick_target(rng, doc)
            job["output"] = out
            job["commands"] = [
                (["closure", str(path), "-o", out], 0),
                (["validate", out], 0),
                (["export-dot", out], 0),
                (["paths", out, "--from", doc["host"], "--to", target,
                  "--include-silent", "--max-hops", "2"], 0),
                (["score", out], 0),
            ]
        else:
            raise ValueError(f"unknown workload: {workload!r}")
        path.write_text(_canonical(doc), encoding="ascii")
        jobs.append(job)
    return jobs
