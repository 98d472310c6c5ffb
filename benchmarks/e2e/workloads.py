"""Seeded workload generators and the generator-side model.

Four workloads over the publication use case (schema and mapping from
``repro.workloads.publication``, rows from ``repro.workloads.generator``).
Everything here is derived from the ``--seed`` argument; the program under
test only ever receives the generated requests, never the seed.

Each worker (one thread = one connection) owns a disjoint partition of the
mutable key space — base authors with ``id % workers == worker`` and the
fresh ids it allocates itself — so the expected answer of every request is
fixed at generation time no matter how the workers' requests interleave.
Scan templates only read rows no request ever changes (team membership of
base authors, publications of base publishers), so their expected row
counts are fixed by the dataset.

The :class:`Model` mirrors what the requests do (live fresh authors, the
current mbox of every author, titles of inserted publications); every
response is checked against it by :func:`check_rows` /
:func:`check_update`.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.rdf.terms import Literal, URIRef
from repro.workloads.generator import Dataset, WorkloadConfig, generate_dataset
from repro.workloads.operations import (
    PREFIXES,
    delete_email_op,
    insert_author_op,
    insert_full_publication_op,
    modify_email_op,
)
from repro.workloads.publication import URI_PREFIX

__all__ = [
    "CLASSES",
    "QUERY_CLASSES",
    "UPDATE_CLASSES",
    "Model",
    "Op",
    "Spec",
    "Stream",
    "TEMPLATES",
    "WORKLOADS",
    "build_dataset",
    "check_rows",
    "check_update",
]

#: Operation classes, in the order the per-class metrics are named.
CLASSES = ("insert", "delete", "modify", "point_query", "scan_query")
UPDATE_CLASSES = ("insert", "delete", "modify")
QUERY_CLASSES = ("point_query", "scan_query")

# ---------------------------------------------------------------------------
# request templates
# ---------------------------------------------------------------------------
# One text per template with SPARQL variables as placeholders.  The
# prepared workload hands them to ``Session.prepare`` and binds the
# variables at execute time; the text workloads substitute the same
# bindings into the same text, so all four workloads send the same shapes.

#: template name -> (operation class, SPARQL text with placeholders)
TEMPLATES: Dict[str, Tuple[str, str]] = {
    "insert_author": (
        "insert",
        "INSERT DATA { ?subj foaf:firstName ?first ; foaf:family_name ?last ;"
        " foaf:mbox ?mbox ; ont:team ?team . }",
    ),
    # Listing 15: one request touching all six tables (text workloads only:
    # it re-uses repro.workloads.operations.insert_full_publication_op).
    "insert_publication": ("insert", ""),
    "delete_author": (
        "delete",
        "DELETE DATA { ?subj a foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; foaf:mbox ?mbox ; ont:team ?team . }",
    ),
    "delete_author_nombox": (
        "delete",
        "DELETE DATA { ?subj a foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; ont:team ?team . }",
    ),
    # Listing 17: remove one attribute triple.
    "delete_mbox": ("delete", "DELETE DATA { ?subj foaf:mbox ?mbox . }"),
    # Listing 11: replace the email of a named author (WHERE by name).
    "modify_by_name": (
        "modify",
        "MODIFY DELETE { ?x foaf:mbox ?old . } INSERT { ?x foaf:mbox ?new . }"
        " WHERE { ?x rdf:type foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; foaf:mbox ?old . }",
    ),
    # The same replacement addressed by subject URI (WHERE is a key lookup).
    "modify_by_uri": (
        "modify",
        "MODIFY DELETE { ?subj foaf:mbox ?old . }"
        " INSERT { ?subj foaf:mbox ?new . } WHERE { ?subj foaf:mbox ?old . }",
    ),
    "point_author": (
        "point_query",
        "SELECT ?f ?l ?m WHERE { ?subj foaf:firstName ?f ; foaf:family_name ?l ."
        " OPTIONAL { ?subj foaf:mbox ?m } }",
    ),
    "point_publication": (
        "point_query",
        "SELECT ?t ?y WHERE { ?subj dc:title ?t ; ont:pubYear ?y }",
    ),
    # FK join: the members of one team with the team's name.
    "scan_team": (
        "scan_query",
        "SELECT ?a ?l ?n WHERE { ?a ont:team ?team ; foaf:family_name ?l ."
        " ?team foaf:name ?n }",
    ),
    # BETWEEN range over the years of one publisher's publications.
    "scan_years": (
        "scan_query",
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ?pub ; ont:pubYear ?y ;"
        " dc:title ?t . FILTER(?y >= ?lo && ?y <= ?hi) }",
    ),
    # ORDER BY ... LIMIT 10 over one publisher's publications of one type.
    "scan_top10": (
        "scan_query",
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ?pub ; ont:pubType ?type ;"
        " dc:title ?t ; ont:pubYear ?y } ORDER BY DESC(?y) ?t LIMIT 10",
    ),
}

_PLACEHOLDER = re.compile(r"\?(\w+)")


def render_text(template: str, bindings: Dict[str, Any]) -> str:
    """The template with its placeholders replaced by concrete terms."""
    def replace(match):
        value = bindings.get(match.group(1))
        if value is None:
            return match.group(0)  # a genuine query variable
        if isinstance(value, int):
            return str(value)
        return value.n3() if hasattr(value, "n3") else Literal(value).n3()

    return PREFIXES + _PLACEHOLDER.sub(replace, TEMPLATES[template][1])


def uri(local: str) -> URIRef:
    return URIRef(URI_PREFIX + local)


def mailto(address: str) -> URIRef:
    return URIRef("mailto:" + address)


# ---------------------------------------------------------------------------
# workload specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """One workload: data size, traffic mix, key skew, and how it is driven."""

    name: str
    #: "oneshot" (OntoAccess.update/query with text), "prepared"
    #: (Session.prepare + bindings), "http" (repro.server.client)
    surface: str
    authors: int
    publications: int
    #: template -> share of requests; shares sum to 1
    mix: Tuple[Tuple[str, float], ...]
    #: "uniform" | "zipf" (s = 1.1) | "recent" (fresh keys favoured)
    keys: str
    workers: int = 1
    #: requests per second for an open loop; None = closed loop
    rate: Optional[float] = None
    durable: bool = False
    #: times the set-up is repeated in one run (setup_s is the median)
    setup_repeats: int = 3
    #: The timed section is cut into rounds and every latency metric is
    #: computed per round first (see README.md, "Rounds").  A closed loop
    #: on one thread counts requests (``round_ops`` each, so every round
    #: does the same amount of work); loops on threads cut by the clock
    #: (``round_seconds`` each).
    round_ops: int = 0
    round_seconds: float = 0.0
    #: every round starts from a freshly built system and replays the same
    #: request list (a workload whose tables grow as it runs)
    fresh_rounds: bool = False
    #: requests wait for the CPU, not for a timer or a disk: latencies are
    #: stated at the reference speed of the box (README.md, "Box speed")
    cpu_bound: bool = True
    #: untimed requests per worker before the timed section
    warmup_ops: int = 200
    #: POST /admin/checkpoint calls spread evenly inside the timed section
    checkpoints: int = 0
    #: untimed requests of the same mix after the last checkpoint: their
    #: updates are the fixed-length WAL tail that recovery replays
    wal_tail_ops: int = 0
    #: take the templates in turn instead of by share (smoke test: every
    #: class shows up within the first few requests)
    cycle_templates: bool = False

    def config(self, seed: int) -> WorkloadConfig:
        # ~90 authors per team and ~180 publications per publisher keep
        # every scan template at 10-200 rows whatever the data size.
        return WorkloadConfig(
            teams=max(2, self.authors // 100),
            publishers=max(2, self.publications // 200),
            pubtypes=5,
            authors=self.authors,
            publications=self.publications,
            seed=seed,
        )


#: Open-loop rate of http_read_open, requests per second.  Closed-loop
#: capacity of the same mix with 2 keep-alive connections measured 45/s on
#: the commit that added the benchmark (every response waits ~40 ms for a
#: delayed ACK, see README.md); the rate is about half of it and frozen.
READ_OPEN_RATE = 160.0

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="inproc_oneshot_mixed",
            surface="oneshot",
            authors=2000,
            publications=4000,
            mix=(
                ("insert_author", 0.35),
                ("insert_publication", 0.10),
                ("delete_author", 0.075),
                ("delete_mbox", 0.075),
                ("modify_by_name", 0.15),
                ("point_author", 0.15),
                ("point_publication", 0.05),
                ("scan_team", 0.02),
                ("scan_years", 0.015),
                ("scan_top10", 0.015),
            ),
            keys="uniform",
            setup_repeats=1,
            round_ops=1536,
            fresh_rounds=True,
        ),
        Spec(
            name="inproc_prepared_zipf",
            surface="prepared",
            authors=20000,
            publications=40000,
            mix=(
                ("point_author", 0.20),
                ("point_publication", 0.10),
                ("scan_team", 0.07),
                ("scan_years", 0.07),
                ("scan_top10", 0.06),
                ("insert_author", 0.25),
                ("delete_author", 0.05),
                ("delete_mbox", 0.05),
                ("modify_by_uri", 0.15),
            ),
            keys="zipf",
            setup_repeats=2,
            round_ops=1024,
        ),
        Spec(
            name="http_durable_writes",
            surface="http",
            authors=5000,
            publications=10000,
            mix=(
                ("insert_author", 0.30),
                ("delete_author", 0.075),
                ("delete_mbox", 0.075),
                ("modify_by_uri", 0.30),
                ("point_author", 0.20),
                ("scan_team", 0.02),
                ("scan_years", 0.015),
                ("scan_top10", 0.015),
            ),
            keys="recent",
            workers=2,
            durable=True,
            # every request waits 40 ms for a delayed ACK and for fsync
            cpu_bound=False,
            setup_repeats=2,
            round_seconds=5.0,
            warmup_ops=40,
            checkpoints=2,
            wal_tail_ops=100,
        ),
        Spec(
            name="http_read_open",
            surface="http",
            authors=20000,
            publications=40000,
            mix=(
                ("point_author", 0.50),
                ("point_publication", 0.20),
                ("scan_team", 0.06),
                ("scan_years", 0.05),
                ("scan_top10", 0.04),
                ("insert_author", 0.05),
                ("delete_author", 0.025),
                ("delete_mbox", 0.025),
                ("modify_by_uri", 0.05),
            ),
            keys="zipf",
            workers=16,
            rate=READ_OPEN_RATE,
            setup_repeats=2,
            round_seconds=2.0,
            warmup_ops=40,
        ),
    )
}


def build_dataset(spec: Spec, seed: int) -> Dataset:
    return generate_dataset(spec.config(seed))


# ---------------------------------------------------------------------------
# the generator-side model
# ---------------------------------------------------------------------------

class Model:
    """What the database should hold, as far as responses can show it."""

    def __init__(self, dataset: Dataset) -> None:
        self.base_authors = len(dataset.authors)
        self.base_publications = len(dataset.publications)
        self.teams = len(dataset.teams)
        self.publishers = len(dataset.publishers)
        self.pubtypes = len(dataset.pubtypes)
        #: author id -> (firstname, lastname); live authors only
        self.names: Dict[int, Tuple[Optional[str], str]] = {
            a["id"]: (a["firstname"], a["lastname"]) for a in dataset.authors
        }
        #: author id -> current email address or None
        self.mbox: Dict[int, Optional[str]] = {
            a["id"]: a["email"] for a in dataset.authors
        }
        #: publication id -> (title, year)
        self.pubs: Dict[int, Tuple[str, int]] = {
            p["id"]: (p["title"], p["year"]) for p in dataset.publications
        }
        #: team id -> number of base authors in it (never changes: fresh
        #: authors join ingest teams that no scan reads)
        self.team_size: Dict[int, int] = {}
        for a in dataset.authors:
            if a["team"] is not None:
                self.team_size[a["team"]] = self.team_size.get(a["team"], 0) + 1
        #: publisher id -> [(year, type, title, id)] of base publications
        self.by_publisher: Dict[int, List[Tuple[int, Optional[int], str, int]]] = {}
        for p in dataset.publications:
            if p["publisher"] is not None:
                self.by_publisher.setdefault(p["publisher"], []).append(
                    (p["year"], p["type"], p["title"], p["id"])
                )

    # Teams are split: scans read the lower ids, fresh authors join the
    # top ``INGEST_TEAMS`` ones, so scan answers stay fixed.
    INGEST_TEAMS = 2

    def scan_teams(self) -> int:
        return self.teams - self.INGEST_TEAMS

    def years_count(self, publisher: int, lo: int, hi: int) -> int:
        return sum(
            1 for year, _, _, _ in self.by_publisher.get(publisher, ())
            if lo <= year <= hi
        )

    def top10(self, publisher: int, pubtype: int) -> Tuple[int, Optional[int]]:
        """(rows returned, id of the first row) for ORDER BY DESC(year),
        title LIMIT 10."""
        rows = [
            (-year, title, pid)
            for year, ptype, title, pid in self.by_publisher.get(publisher, ())
            if ptype == pubtype
        ]
        if not rows:
            return 0, None
        return min(10, len(rows)), min(rows)[2]

    def live_rows(self) -> int:
        """Author + publication rows the model knows to be live."""
        return len(self.names) + len(self.pubs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One generated request and the answer the model expects."""

    cls: str
    template: str
    #: full request text (one-shot and HTTP surfaces)
    text: str
    #: placeholder bindings (prepared surface); None when not preparable
    bindings: Optional[Dict[str, Any]]
    #: updates: rows the request must affect; queries: see check_rows
    expect: Any

    @property
    def is_update(self) -> bool:
        return self.cls in UPDATE_CLASSES


def check_update(op: Op, rows_affected: Optional[int]) -> bool:
    """In-process surfaces report rows affected; HTTP reports only ok."""
    return rows_affected is None or rows_affected == op.expect


def check_rows(op: Op, rows: Sequence[Dict[str, str]]) -> bool:
    """``rows`` is the SELECT answer as variable name -> lexical value."""
    kind, payload = op.expect
    if kind == "one":
        return len(rows) == 1 and rows[0] == payload
    count, first = payload
    if len(rows) != count:
        return False
    return first is None or not rows or rows[0].get("p") == first


# ---------------------------------------------------------------------------
# per-worker streams
# ---------------------------------------------------------------------------

class _Keys:
    """Zipf(s) over ``keys``: rank r is drawn with weight 1 / r**s, so
    ``s = 0`` is uniform."""

    def __init__(self, keys: List[int], s: float) -> None:
        self.keys = keys
        total = 0.0
        self.cumulative: List[float] = []
        for rank in range(1, len(keys) + 1):
            total += 1.0 / rank ** s
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_left(self.cumulative, point)]


class Stream:
    """The deterministic request stream of one worker."""

    def __init__(self, spec: Spec, model: Model, worker: int, seed: int) -> None:
        self.spec = spec
        self.model = model
        self.worker = worker
        self.rng = random.Random(f"{seed}/{spec.name}/{worker}")
        self.count = 0
        self._templates = [name for name, _ in spec.mix]
        self._weights: List[float] = []
        total = 0.0
        for _, share in spec.mix:
            total += share
            self._weights.append(total)
        self._stride = spec.workers
        # fresh ids: disjoint per worker, above everything in the dataset
        self._next_author = model.base_authors + 1 + worker
        self._next_pub = model.base_publications + 1 + worker
        self._next_aux = max(model.teams, model.publishers, model.pubtypes) + 1 + worker
        #: fresh authors this worker inserted and may still delete
        self.fresh: List[int] = []
        skew = 1.1 if spec.keys == "zipf" else 0.0
        self._authors = self._own_keys(model.base_authors, skew)
        self._pubs = self._own_keys(model.base_publications, skew)
        #: publications this worker inserted (point-query targets)
        self._fresh_pubs: List[int] = []
        #: fresh author id -> the ingest team it joined
        self._team_of: Dict[int, int] = {}

    # -- key choice -------------------------------------------------------

    def _own_keys(self, base: int, skew: float) -> _Keys:
        """This worker's share of the ids 1..base, in a seeded rank order."""
        own = [k for k in range(1, base + 1) if k % self._stride == self.worker]
        self.rng.shuffle(own)
        return _Keys(own, skew)

    def _base_author(self) -> int:
        return self._authors.draw(self.rng)

    def _base_pub(self) -> int:
        return self._pubs.draw(self.rng)

    def _fresh_index(self) -> int:
        """Index into ``self.fresh``; recent keys favoured when asked."""
        n = len(self.fresh)
        if self.spec.keys == "recent":
            back = min(n - 1, int(self.rng.expovariate(1.0 / 40.0)))
            return n - 1 - back
        return self.rng.randrange(n)

    def _any_author(self) -> int:
        """A live author: fresh ones preferred under the "recent" skew."""
        if self.fresh and (
            self.spec.keys == "recent" or self.rng.random() < 0.2
        ):
            return self.fresh[self._fresh_index()]
        return self._base_author()

    def _author_with_mbox(self) -> int:
        # a few tries under the workload's skew, then any base author
        # (four in five have an email address)
        for attempt in range(64):
            author = self._any_author() if attempt < 8 else self._base_author()
            if self.model.mbox.get(author):
                return author
        raise RuntimeError("no author with an mbox left in this partition")

    # -- generation -------------------------------------------------------

    def next_chunk(self, n: int) -> List[Op]:
        return [self.next_op() for _ in range(n)]

    def next_op(self) -> Op:
        if self.spec.cycle_templates:
            template = self._templates[
                (self.count + self.worker) % len(self._templates)
            ]
        else:
            roll = self.rng.random() * self._weights[-1]
            template = self._templates[bisect.bisect_left(self._weights, roll)]
        if template.startswith("delete") and not self.fresh:
            template = "insert_author"  # nothing of ours to delete yet
        self.count += 1
        op = getattr(self, "_gen_" + template)()
        if self.spec.surface == "oneshot":
            # every request text unique: no text-keyed cache can help
            op.text += f"# {self.worker}.{self.count}\n"
        return op

    def _op(self, template: str, bindings: Dict[str, Any], expect: Any,
            text: Optional[str] = None) -> Op:
        cls = TEMPLATES[template][0]
        if text is None:
            text = render_text(template, bindings)
        return Op(cls, template, text, bindings, expect)

    def _author_bindings(self, author: int) -> Dict[str, Any]:
        first, last = self.model.names[author]
        return {"subj": uri(f"author{author}"), "first": first, "last": last}

    def _gen_insert_author(self) -> Op:
        m = self.model
        author = self._next_author
        self._next_author += self._stride
        team = m.teams - self.rng.randrange(m.INGEST_TEAMS)
        # the row repro.workloads.operations.insert_author_op creates
        m.names[author] = (f"First{author}", f"Generated{author}")
        m.mbox[author] = f"author{author}@example.org"
        self.fresh.append(author)
        bindings = self._author_bindings(author)
        bindings["mbox"] = mailto(m.mbox[author])
        bindings["team"] = uri(f"team{team}")
        self._team_of[author] = team
        return self._op(
            "insert_author", bindings, 1,
            text=insert_author_op(author, team_id=team),
        )

    def _gen_insert_publication(self) -> Op:
        m = self.model
        pub, author, aux = self._next_pub, self._next_author, self._next_aux
        self._next_pub += self._stride
        self._next_author += self._stride
        self._next_aux += self._stride
        # Listing 15 with fresh ids everywhere: 6 rows in 6 tables.  Its
        # author is referenced by the link table, so it is never deleted.
        m.names[author] = (f"First{author}", f"Last{author}")
        m.mbox[author] = f"author{author}@example.org"
        m.pubs[pub] = (f"Generated Publication {pub}", 2000 + pub % 10)
        self._fresh_pubs.append(pub)
        return self._op(
            "insert_publication", None, 6,
            text=insert_full_publication_op(pub, author, aux, aux, aux),
        )

    def _gen_delete_author(self) -> Op:
        m = self.model
        author = self.fresh.pop(self._fresh_index())
        bindings = self._author_bindings(author)
        bindings["team"] = uri(f"team{self._team_of.pop(author)}")
        template = "delete_author_nombox"
        if m.mbox[author]:
            template = "delete_author"
            bindings["mbox"] = mailto(m.mbox[author])
        del m.names[author]
        del m.mbox[author]
        return self._op(template, bindings, 1)

    def _gen_delete_mbox(self) -> Op:
        m = self.model
        with_mbox = [a for a in self.fresh[-64:] if m.mbox[a]]
        if not with_mbox:
            return self._gen_delete_author()
        author = self.rng.choice(with_mbox)
        address = m.mbox[author]
        m.mbox[author] = None
        return self._op(
            "delete_mbox",
            {"subj": uri(f"author{author}"), "mbox": mailto(address)},
            1,
            text=delete_email_op(author, address),
        )

    def _new_address(self, author: int) -> str:
        return f"a{author}.v{self.count}@example.org"

    def _gen_modify_by_name(self) -> Op:
        author = self._author_with_mbox()
        first, last = self.model.names[author]
        address = self._new_address(author)
        self.model.mbox[author] = address
        return self._op(
            "modify_by_name",
            {"first": first, "last": last, "new": mailto(address)},
            1,
            text=modify_email_op(first, last, address),
        )

    def _gen_modify_by_uri(self) -> Op:
        author = self._author_with_mbox()
        address = self._new_address(author)
        self.model.mbox[author] = address
        return self._op(
            "modify_by_uri",
            {"subj": uri(f"author{author}"), "new": mailto(address)},
            1,
        )

    def _gen_point_author(self) -> Op:
        author = self._any_author()
        first, last = self.model.names[author]
        row = {"l": last}
        if first is not None:
            row["f"] = first
        if self.model.mbox[author]:
            row["m"] = "mailto:" + self.model.mbox[author]
        return self._op(
            "point_author", {"subj": uri(f"author{author}")}, ("one", row)
        )

    def _gen_point_publication(self) -> Op:
        if self._fresh_pubs and self.rng.random() < 0.2:
            pub = self.rng.choice(self._fresh_pubs)
        else:
            pub = self._base_pub()
        title, year = self.model.pubs[pub]
        return self._op(
            "point_publication",
            {"subj": uri(f"pub{pub}")},
            ("one", {"t": title, "y": str(year)}),
        )

    def _gen_scan_team(self) -> Op:
        team = self.rng.randint(1, self.model.scan_teams())
        return self._op(
            "scan_team",
            {"team": uri(f"team{team}")},
            ("count", (self.model.team_size.get(team, 0), None)),
        )

    def _gen_scan_years(self) -> Op:
        publisher = self.rng.randint(1, self.model.publishers)
        lo = self.rng.randint(1998, 2008)
        hi = lo + 2
        return self._op(
            "scan_years",
            {"pub": uri(f"publisher{publisher}"), "lo": lo, "hi": hi},
            ("count", (self.model.years_count(publisher, lo, hi), None)),
        )

    def _gen_scan_top10(self) -> Op:
        publisher = self.rng.randint(1, self.model.publishers)
        pubtype = self.rng.randint(1, self.model.pubtypes)
        count, first = self.model.top10(publisher, pubtype)
        return self._op(
            "scan_top10",
            {"pub": uri(f"publisher{publisher}"), "type": uri(f"pubtype{pubtype}")},
            ("count", (count, None if first is None else URI_PREFIX + f"pub{first}")),
        )
