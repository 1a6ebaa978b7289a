"""Independent output checks for the benchmark.

Everything here is recomputed from the generated JSON documents with plain
``Fraction`` arithmetic; nothing calls conncalc, so a valuation bug cannot
hide on both sides of a comparison. Each ``check_*`` returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

DEFAULT_ATTRIBUTE = Fraction(3, 4)
ATTRIBUTE_KEYS = ("existence", "inner_state", "external_state", "communication_state")


class Doc:
    """A scenario document with its numbers decoded to exact rationals."""

    def __init__(self, raw: dict):
        self.host = raw["host"]
        self.impact_mode = raw.get("mode", "raw") == "impact_weighted"
        self.desired = Fraction(raw["desired_connectivity"]) if "desired_connectivity" in raw else None
        self.kinds = {e["id"]: e["kind"] for e in raw["entities"]}
        self.impact = {}
        for e in raw["entities"]:
            attrs = e.get("attributes")
            values = [Fraction(attrs[k]) for k in ATTRIBUTE_KEYS] if attrs else [DEFAULT_ATTRIBUTE] * 4
            self.impact[e["id"]] = sum(values, Fraction(0)) / 4
        self.connections = sorted(raw["connections"], key=lambda c: c["id"])
        self.by_id = {c["id"]: c for c in self.connections}
        self.roster = raw.get("ideal_roster")

    @classmethod
    def load(cls, path) -> "Doc":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def weight(self, src: str, dst: str, impact: bool) -> Fraction:
        return (self.impact[src] + self.impact[dst]) / 2 if impact else Fraction(1)

    def value(self, conn: dict, impact: bool, *, ignore_blocked: bool = False) -> Fraction:
        if conn.get("blocked") and not ignore_blocked:
            return Fraction(0)
        return conn["polarity"] * Fraction(conn["magnitude"]) * self.weight(conn["src"], conn["dst"], impact)

    def score(self, impact: bool) -> Fraction:
        return sum((self.value(c, impact) for c in self.connections), Fraction(0))

    def ideal(self, impact: bool) -> Fraction:
        if self.roster is None:
            return sum(
                (abs(self.value(c, impact, ignore_blocked=True)) for c in self.connections),
                Fraction(0),
            )
        total = Fraction(0)
        for entry in self.roster:
            if "ref" in entry:
                total += abs(self.value(self.by_id[entry["ref"]], impact, ignore_blocked=True))
            else:
                hyp = entry["hypothetical"]
                total += abs(Fraction(hyp["magnitude"]) * self.weight(hyp["src"], hyp["dst"], impact))
        return total


def band(percent: Fraction) -> str:
    if percent < 50:
        return "failing"
    return "satisfactory" if percent <= 75 else "high"


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split(" "))


def _num(text: str) -> Fraction:
    return Fraction(text[:-1] if text.endswith("%") else text)


def _is_json(argv: list[str]) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_score(out: str, doc: Doc, impact: bool, as_json: bool) -> str | None:
    score, ideal = doc.score(impact), doc.ideal(impact)
    percent = 100 * score / ideal
    mode = "impact_weighted" if impact else "raw"
    if as_json:
        got = json.loads(out)
        if got.get("type") != "connectivity_report":
            return f"wrong report type {got.get('type')!r}"
    else:
        got = _fields(out.strip())
        got["efficiency_percent"] = got.pop("efficiency", "")
    if _num(got["score"]) != score:
        return f"score {got['score']} != {score}"
    if _num(got["ideal"]) != ideal:
        return f"ideal {got['ideal']} != {ideal}"
    if _num(got["efficiency_percent"]) != percent:
        return f"efficiency {got['efficiency_percent']} != 100*score/ideal = {percent}"
    if got["band"] != band(percent) or got["mode"] != mode:
        return f"band/mode {got['band']}/{got['mode']} != {band(percent)}/{mode}"
    return None


def check_quality(out: str, doc: Doc) -> str | None:
    got = _fields(out.strip())
    score = doc.score(doc.impact_mode)
    percent = 100 * score / doc.desired
    if _num(got["score"]) != score or _num(got["desired"]) != doc.desired:
        return f"quality inputs {got['score']}/{got['desired']} != {score}/{doc.desired}"
    if _num(got["quality"]) != percent or got["band"] != band(percent):
        return f"quality {got['quality']} {got['band']} != {percent} {band(percent)}"
    return None


def confusion_causes(doc: Doc) -> list[str]:
    causes = []
    unclear = {"hidden", "unknown"}
    if any(doc.kinds[c["src"]] in unclear or doc.kinds[c["dst"]] in unclear for c in doc.connections):
        causes.append("missing_entity_info")
    parent = {eid: eid for eid in doc.kinds}

    def root(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in doc.connections:
        if c["kind"] == "real" and not c.get("blocked"):
            parent[root(c["src"])] = root(c["dst"])
    if any(c["kind"] != "self" and root(c["src"]) != root(c["dst"]) for c in doc.connections):
        causes.append("missing_path_info")
    self_mags = {Fraction(c["magnitude"]) for c in doc.connections if c["kind"] == "self"}
    other_mags = {Fraction(c["magnitude"]) for c in doc.connections if c["kind"] != "self"}
    if any(s != o for s in self_mags for o in other_mags):
        causes.append("self_conflict")
    return causes


def check_confusion(out: str, doc: Doc) -> str | None:
    got = _fields(out.strip())
    z = doc.score(doc.impact_mode)
    percent = 100 * z / doc.desired
    confused = "false" if z > 0 and percent > 50 else "true"
    causes = ",".join(confusion_causes(doc)) or "none"
    if _num(got["z"]) != z or _num(got["quality"]) != percent:
        return f"confusion z/quality {got['z']}/{got['quality']} != {z}/{percent}"
    if got["confused"] != confused or got["causes"] != causes:
        return f"confusion {got['confused']} {got['causes']} != {confused} {causes}"
    return None


def expected_paths(doc: Doc, src: str, dst: str, max_hops: int, include_silent: bool) -> list[str]:
    """Every simple path as the CLI prints it: shortest first, then by entity sequence."""
    eligible: dict[frozenset, list[dict]] = {}
    for c in doc.connections:
        if c.get("blocked") or c["kind"] == "self" or (c["kind"] == "silent" and not include_silent):
            continue
        eligible.setdefault(frozenset((c["src"], c["dst"])), []).append(c)
    neighbours: dict[str, set] = {}
    for pair in eligible:
        a, b = tuple(pair)
        neighbours.setdefault(a, set()).add(b)
        neighbours.setdefault(b, set()).add(a)
    found = []

    def walk(trail: list[str]) -> None:
        node = trail[-1]
        if node == dst:
            found.append(tuple(trail))
            return
        if len(trail) - 1 == max_hops:
            return
        for nxt in neighbours.get(node, ()):
            if nxt not in trail:
                walk(trail + [nxt])

    walk([src])
    found.sort(key=lambda seq: (len(seq), seq))

    def best(a: str, b: str) -> str:
        # Highest value wins. Candidates are in id order and max() keeps the
        # first of equal values, so ties go to the smallest id.
        candidates = eligible[frozenset((a, b))]
        return max(candidates, key=lambda c: doc.value(c, doc.impact_mode))["id"]

    return [
        f"{' -> '.join(seq)} via {','.join(best(a, b) for a, b in zip(seq, seq[1:]))}"
        for seq in found
    ]


def check_paths(out: str, doc: Doc, argv: list[str]) -> str | None:
    want = expected_paths(
        doc, _opt(argv, "--from"), _opt(argv, "--to"), int(_opt(argv, "--max-hops") or 3),
        "--include-silent" in argv,
    ) or ["(no paths)"]
    got = out.splitlines()
    if got != want:
        first = [(line, expected) for line, expected in zip(got, want) if line != expected][:1]
        return f"paths: {len(got)} lines, expected {len(want)}; first difference {first}"
    return None


def _removal_rows(out: str, as_json: bool) -> tuple[dict, list[dict]]:
    if as_json:
        doc = json.loads(out)
        header = {"order": doc["order"], "ideal": doc["ideal"], "steps": str(len(doc["steps"]))}
        rows = [
            {"blocked": s["blocked_connection"], "score": s["score"], "efficiency": s["efficiency_percent"]}
            for s in doc["steps"]
        ]
        return header, rows
    lines = out.splitlines()
    return _fields(lines[0]), [_fields(line) for line in lines[1:]]


def check_removal(out: str, doc: Doc, argv: list[str]) -> str | None:
    """Each step lowers the score by exactly the blocked connection's value; the run ends at 0."""
    impact = doc.impact_mode
    order = _opt(argv, "--order")
    header, rows = _removal_rows(out, _is_json(argv))
    ideal = doc.ideal(impact)
    if header["order"] != order or _num(header["ideal"]) != ideal:
        return f"removal header {header} != order={order} ideal={ideal}"
    if int(header["steps"]) != len(rows) or len(rows) != len(doc.connections):
        return f"removal has {len(rows)} steps for {len(doc.connections)} connections"
    ranked = sorted(
        doc.connections,
        key=lambda c: (abs(doc.value(c, impact, ignore_blocked=True)) * (1 if order == "least-first" else -1), c["id"]),
    )
    score = doc.score(impact)
    for row, conn in zip(rows, ranked):
        if row["blocked"] != conn["id"]:
            return f"removal blocked {row['blocked']}, expected {conn['id']} by importance order"
        score -= doc.value(conn, impact)
        if _num(row["score"]) != score:
            return f"removal step {row['blocked']}: score {row['score']} != {score}"
        if _num(row["efficiency"]) != 100 * score / ideal:
            return f"removal step {row['blocked']}: efficiency {row['efficiency']} != 100*score/ideal"
    if score != 0:
        return f"full removal ends at {score}, not 0"
    return None


def check_replacement(out: str, doc: Doc, spec: dict) -> str | None:
    impact = doc.impact_mode
    got = _fields(out.strip())
    ideal = doc.ideal(impact)
    before = doc.score(impact)
    blocked = before - doc.value(doc.by_id[spec["blocked"]], impact)
    after = blocked + doc.value(spec["connection"], impact)
    want = {
        "blocked": spec["blocked"],
        "replacement": spec["connection"]["id"],
        "quality_before": 100 * before / ideal,
        "quality_blocked": 100 * blocked / ideal,
        "quality_after": 100 * after / ideal,
    }
    for key, value in want.items():
        have = got.get(key, "")
        if (have if isinstance(value, str) else _num(have)) != value:
            return f"replacement {key}={have}, expected {value}"
    return None


def check_validate(out: str) -> str | None:
    return None if out == "ok\n" else f"validate printed {out[:80]!r}, expected 'ok'"


def check_defect(out: str, location: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[-1] != "invalid":
        return "defective file not reported invalid"
    if not any(line.startswith(f"error {location}:") for line in lines):
        return f"no diagnostic at {location}"
    return None


def check_closure(closed: Doc, original: Doc) -> str | None:
    """The closure keeps every original connection and satisfies the connection law."""
    if closed.kinds != original.kinds or closed.host != original.host:
        return "closure changed the entities or host"
    for conn in original.connections:
        if closed.by_id.get(conn["id"]) != conn:
            return f"closure altered connection {conn['id']}"
    for conn in closed.connections:
        if conn["id"] in original.by_id:
            continue
        loop = conn["src"] == conn["dst"]
        shape = ("self", 1) if loop else ("silent", -1)
        if (conn["kind"], conn["polarity"]) != shape or conn["magnitude"] != "1":
            return f"closure added unexpected connection {conn['id']}"
    with_self = {c["src"] for c in closed.connections if c["kind"] == "self"}
    joined = {frozenset((c["src"], c["dst"])) for c in closed.connections if c["src"] != c["dst"]}
    ids = sorted(closed.kinds)
    if any(e not in with_self for e in ids):
        return "closure left an entity without a self-connection"
    n = len(ids)
    if len(joined) != n * (n - 1) // 2:
        return f"closure joined {len(joined)} of {n * (n - 1) // 2} entity pairs"
    return None


def check_dot(out: str, doc: Doc) -> str | None:
    lines = out.splitlines()
    n, m = len(doc.kinds), len(doc.connections)
    if lines[:2] != ["graph scenario {", "  node [shape=ellipse];"] or lines[-1] != "}":
        return "DOT output lacks the graph frame"
    if len(lines) != 3 + n + m:
        return f"DOT has {len(lines)} lines for {n} entities and {m} connections"
    edge_ids = [line.rsplit("id=", 1)[-1].rstrip("];") for line in lines[2 + n : -1]]
    if edge_ids != [json.dumps(c["id"]) for c in doc.connections]:
        return "DOT edges are not the connections in id order"
    return None


def check_command(argv: list[str], out: str, docs: dict, job: dict) -> str | None:
    """Check one command's stdout; ``docs`` maps file names to loaded documents."""
    args = [a for a in argv if a not in ("--format", "json")]
    command, path = args[0], args[1]
    if command == "validate":
        if "defect" in job and path == job["defect"]["file"]:
            return check_defect(out, job["defect"]["location"])
        return check_validate(out)
    if command == "closure":
        if out:
            return "closure with -o wrote to stdout"
        return check_closure(docs[job["output"]], docs[job["file"]])
    doc = docs[path]
    if command == "score":
        impact = _opt(argv, "--mode") == "impact" or (doc.impact_mode and "--mode" not in argv)
        return check_score(out, doc, impact, _is_json(argv))
    if command == "quality":
        return check_quality(out, doc)
    if command == "confusion":
        return check_confusion(out, doc)
    if command == "paths":
        return check_paths(out, doc, argv)
    if command == "ablate":
        if "--replace" in argv:
            return check_replacement(out, doc, job["replace"])
        return check_removal(out, doc, argv)
    if command == "export-dot":
        return check_dot(out, doc)
    return f"no check for command {command!r}"
