"""Command-line interface: ``python -m repro <command>``.

Subcommands

``demo``
    Run the paper's feasibility study end to end (Table 1 + listings).
``serve``
    Start the HTTP endpoint on the publication use case (or a schema file).
``update`` / ``query``
    Execute a SPARQL/Update request or SPARQL query from a file or stdin
    against a schema+data script, printing translated SQL / results.
``dump``
    Print the mapped database as Turtle.
``mapping``
    Auto-generate and print the R3M mapping for a schema (``--validate``
    checks an existing mapping document against the schema).
``checkpoint``
    Force a durability checkpoint on a ``--data-dir`` database:
    serialize the committed state, truncate the write-ahead log.

Durability: every data-bearing command accepts ``--data-dir DIR`` (plus
``--sync-mode fsync|os|none``).  The directory is recovered on open —
checkpoint plus write-ahead-log replay — and schema/data scripts are
applied only when it is empty, so repeated invocations operate on the
surviving database instead of rebuilding it.

The CLI wires files to the library; all semantics live in the packages.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .core.mediator import OntoAccess
from .errors import ReproError, TranslationError
from .rdb.engine import Database
from .rdf.graph import Graph
from .rdf.serialize import to_turtle
from .r3m.generator import generate_mapping
from .r3m.parser import parse_mapping
from .r3m.serialize import mapping_to_turtle
from .r3m.validator import validate_mapping

__all__ = ["main", "build_parser"]

#: Longest ``serve --replica-of`` waits for the bootstrap replay to catch
#: up with the primary before giving up, in seconds.
_BOOTSTRAP_TIMEOUT = 60.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OntoAccess: update relational data via SPARQL/Update",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's feasibility study")

    serve = sub.add_parser("serve", help="start the HTTP endpoint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8034)
    serve.add_argument(
        "--max-in-flight", type=int, default=32, metavar="N",
        help="admission control: requests executing concurrently before "
        "new ones queue (default: 32)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission control: queued requests beyond which the server "
        "sheds immediately with 503 (default: 64)",
    )
    serve.add_argument(
        "--queue-timeout", type=float, default=0.25, metavar="SECONDS",
        help="longest a request waits for an admission slot before being "
        "shed with 503 + Retry-After (default: 0.25)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="server-wide request deadline; clients may tighten it via "
        "?timeout= or X-Request-Deadline but never loosen it "
        "(default: 30, 0 = unlimited)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=128, metavar="N",
        help="hard cap on live connections (= handler threads); excess "
        "connections get an immediate 503 (default: 128)",
    )
    serve.add_argument(
        "--replication-port", type=int, default=None, metavar="PORT",
        help="also start a WAL log shipper on this port (0 = ephemeral) "
        "so replicas can follow; requires --data-dir",
    )
    serve.add_argument(
        "--replica-of", metavar="HOST:PORT",
        help="serve as a read replica of the primary whose log shipper "
        "listens at HOST:PORT (writes answer 403 until promoted); with "
        "--data-dir the replica journals what it applies so it can be "
        "promoted durably or rejoin after a restart",
    )
    serve.add_argument(
        "--promote-on-primary-loss", action="store_true",
        help="replica only: promote to primary automatically once the "
        "primary's heartbeat lease has been silent for "
        "--primary-loss-timeout seconds",
    )
    serve.add_argument(
        "--primary-loss-timeout", type=float, default=3.0, metavar="SECONDS",
        help="heartbeat silence after which --promote-on-primary-loss "
        "fires (default: 3)",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=0.2, metavar="SECONDS",
        help="primary: interval between shipper heartbeats — the lease "
        "renewal rate replicas judge liveness by (default: 0.2)",
    )
    serve.add_argument(
        "--heartbeat-grace", type=float, default=1.0, metavar="SECONDS",
        help="replica: heartbeat silence tolerated before the connection "
        "is considered dead and redialed (default: 1)",
    )
    serve.add_argument(
        "--sync-replicas", type=int, default=0, metavar="N",
        help="primary: commits block until N replicas acknowledged the "
        "frame (semi-sync replication; default: 0 = asynchronous)",
    )
    serve.add_argument(
        "--ack-timeout", type=float, default=5.0, metavar="SECONDS",
        help="primary: longest a commit waits for --sync-replicas "
        "acknowledgements before answering 503 (default: 5)",
    )
    serve.add_argument(
        "--max-replica-lag", type=float, default=5.0, metavar="SECONDS",
        help="staleness bound on a replica: reads past this lag answer "
        "503 so clients fall back to the primary (default: 5)",
    )
    serve.add_argument(
        "--slow-query-threshold", type=float, default=1.0, metavar="SECONDS",
        help="requests slower than this land in the ring-buffered "
        "slow-query log served at GET /admin/slow-queries; 0 records "
        "everything (default: 1)",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one JSON line per work request (id, op, status, "
        "phase timings) to this file; '-' = stderr (default: off)",
    )
    serve.add_argument(
        "--service-latency", type=float, default=None, metavar="SECONDS",
        help="inject this much latency into every row scan (benchmark "
        "aid: pins per-process capacity so replica fan-out is measurable "
        "on any machine)",
    )
    _add_schema_args(serve)

    update = sub.add_parser("update", help="execute a SPARQL/Update request")
    update.add_argument(
        "request", nargs="?", help="file with the request ('-' or omitted = stdin)"
    )
    update.add_argument(
        "--dry-run", action="store_true",
        help="translate only; print SQL without executing",
    )
    _add_schema_args(update)

    query = sub.add_parser("query", help="execute a SPARQL query")
    query.add_argument(
        "query", nargs="?", help="file with the query ('-' or omitted = stdin)"
    )
    _add_schema_args(query)

    dump = sub.add_parser("dump", help="dump the mapped database as Turtle")
    _add_schema_args(dump)

    mapping = sub.add_parser(
        "mapping", help="generate or validate an R3M mapping"
    )
    mapping.add_argument(
        "--validate", metavar="MAPPING.TTL",
        help="validate this mapping document against the schema",
    )
    _add_schema_args(mapping)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="serialize a --data-dir database and truncate its WAL",
    )
    checkpoint.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durable database directory to checkpoint",
    )
    checkpoint.add_argument(
        "--sync-mode", default="fsync", choices=("fsync", "os", "none"),
        help="durability mode for the recovery replay (default: fsync)",
    )
    return parser


def _add_schema_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schema", metavar="SCHEMA.SQL",
        help="SQL script creating the schema (default: the paper's "
        "publication use case)",
    )
    parser.add_argument(
        "--data", metavar="DATA.SQL",
        help="SQL script loading initial data",
    )
    parser.add_argument(
        "--mapping", metavar="MAPPING.TTL", dest="mapping_file",
        help="R3M mapping document (default: auto-generated / the paper's "
        "Table 1 mapping for the default schema)",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR",
        help="durable database directory (write-ahead log + checkpoints); "
        "recovered on open, schema/data scripts apply only when empty",
    )
    parser.add_argument(
        "--sync-mode", default="fsync", choices=("fsync", "os", "none"),
        help="commit durability: fsync (device flush), os (page cache), "
        "none (process buffer); default fsync",
    )


def _read(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _open_database(args) -> Database:
    """A Database honoring ``--data-dir`` (recovered) and ``--schema``.

    Schema/data scripts initialize a durable directory only on its first
    open; afterwards the recovered tables win (re-running the scripts
    would duplicate rows or collide with the surviving DDL).
    """
    db = Database(
        data_dir=getattr(args, "data_dir", None),
        sync_mode=getattr(args, "sync_mode", "fsync"),
    )
    if db.schema.table_names():  # recovered a surviving database
        return db
    if args.schema:
        db.execute_script(_read(args.schema))
    else:
        from .workloads.publication import PUBLICATION_DDL

        db.execute_script(PUBLICATION_DDL)
    if getattr(args, "data", None):
        db.execute_script(_read(args.data))
    return db


def _select_mapping(args, db: Database):
    """The R3M mapping for this invocation: an explicit document, a
    reflected one (explicit schema, or a recovered data dir holding
    something other than the default use case), or the paper's Table 1
    mapping for the default publication schema."""
    if args.mapping_file:
        return parse_mapping(_read(args.mapping_file))
    if args.schema or not db.schema.has_table("publication"):
        return generate_mapping(db)
    from .workloads.publication import build_mapping

    return build_mapping(db)


def _build_mediator(args) -> OntoAccess:
    db = _open_database(args)
    return OntoAccess(db, _select_mapping(args, db))


def main(argv: Optional[List[str]] = None, stdout=None) -> int:
    out = stdout or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, out) -> int:
    return {
        "demo": _cmd_demo,
        "serve": _cmd_serve,
        "update": _cmd_update,
        "query": _cmd_query,
        "dump": _cmd_dump,
        "mapping": _cmd_mapping,
        "checkpoint": _cmd_checkpoint,
    }[args.command](args, out)


def _cmd_demo(args, out) -> int:
    from .workloads.publication import (
        build_database,
        build_mapping,
        table1_rows,
    )

    db = build_database()
    mediator = OntoAccess(db, build_mapping(db))
    print("Table 1: use case mapping overview", file=out)
    for left, right in table1_rows(mediator.mapping):
        print(f"  {left:<32} {right}", file=out)
    from .workloads.operations import insert_full_publication_op

    request = insert_full_publication_op(12, 6, 5, 4, 3)
    print("\nListing-15-style request:", file=out)
    result = mediator.update(request)
    print("translated SQL:", file=out)
    for line in result.sql():
        print("  " + line, file=out)
    print(f"\n{len(mediator.dump())} triples in the mediated graph", file=out)
    return 0


def _parse_address(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"invalid address {text!r}: expected HOST:PORT"
        )
    return host, int(port)


def _open_node(args, out):
    """The replication node ``serve`` runs: a replica of ``--replica-of``
    (bootstrapped before this returns), else a primary over
    :func:`_open_database`; either ships its log on
    ``--replication-port`` (a replica once promoted)."""
    from .replication import Node, Replica

    shipping = None
    if args.replication_port is not None:
        shipping = dict(
            host=args.host,
            port=args.replication_port,
            heartbeat_interval=args.heartbeat_interval,
            min_sync_replicas=args.sync_replicas,
            ack_timeout=args.ack_timeout,
        )
    if not args.replica_of:
        return Node(_open_database(args), shipping=shipping, out=out)
    db = None
    if args.data_dir:
        # A durable replica journals what it applies: it can be promoted
        # without losing its prefix, and a deposed primary restarted
        # with the same --data-dir rejoins here — its divergent tail is
        # truncated against the new primary.
        db = Database(data_dir=args.data_dir, sync_mode=args.sync_mode)
    replica = Replica(
        _parse_address(args.replica_of),
        db=db,
        heartbeat_grace=args.heartbeat_grace,
    ).start()
    if not replica.wait_ready(_BOOTSTRAP_TIMEOUT):
        replica.close()
        raise ReproError(
            f"replica did not catch up to {args.replica_of} within "
            f"{_BOOTSTRAP_TIMEOUT:g}s"
        )
    return Node(
        replica.db,
        replica=replica,
        max_replica_lag=args.max_replica_lag,
        shipping=shipping,
        loss_timeout=(
            args.primary_loss_timeout if args.promote_on_primary_loss else None
        ),
        out=out,
    )


def _cmd_serve(args, out) -> int:
    import threading

    from .server.endpoint import ROUTES, OntoAccessEndpoint

    if args.service_latency:
        from .faults import INJECTOR

        INJECTOR.inject("executor:scan", latency=args.service_latency)
    node = _open_node(args, out)
    access_log_file = None
    if args.access_log == "-":
        access_log = sys.stderr
    elif args.access_log:
        access_log_file = open(args.access_log, "a", encoding="utf-8")
        access_log = access_log_file
    else:
        access_log = None
    endpoint = OntoAccessEndpoint(
        OntoAccess(node.db, _select_mapping(args, node.db)),
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        default_timeout=args.request_timeout or None,
        max_connections=args.max_connections,
        node=node,
        slow_query_threshold=args.slow_query_threshold,
        access_log=access_log,
    )
    endpoint.start()
    print(f"OntoAccess endpoint at {endpoint.url}", file=out)
    for line in node.describe():
        print(line, file=out)
    print(", ".join(f"{method} {path}" for method, path in ROUTES), file=out)
    out.flush()  # a parent process may be parsing the announced ports
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        endpoint.stop()
        node.close()
        if access_log_file is not None:
            access_log_file.close()
    return 0


def _cmd_update(args, out) -> int:
    mediator = _build_mediator(args)
    try:
        request = _read(args.request)
        if args.dry_run:
            for line in mediator.translate_sql(request):
                print(line, file=out)
            return 0
        try:
            result = mediator.update(request)
        except TranslationError as exc:
            from .core.feedback import error_graph

            print(to_turtle(error_graph(exc)), file=out)
            return 1
        for line in result.sql():
            print(line, file=out)
        print(
            f"-- {result.statements_executed()} statement(s) executed", file=out
        )
        return 0
    finally:
        mediator.db.close()


def _cmd_query(args, out) -> int:
    mediator = _build_mediator(args)
    try:
        result = mediator.query(_read(args.query))
        if isinstance(result, bool):
            print("true" if result else "false", file=out)
        elif isinstance(result, Graph):
            print(to_turtle(result), file=out)
        else:
            from .server.protocol import render_select_result

            print(render_select_result(result), end="", file=out)
        return 0
    finally:
        mediator.db.close()


def _cmd_dump(args, out) -> int:
    mediator = _build_mediator(args)
    try:
        print(to_turtle(mediator.dump()), file=out)
        return 0
    finally:
        mediator.db.close()


def _cmd_checkpoint(args, out) -> int:
    db = Database(data_dir=args.data_dir, sync_mode=args.sync_mode)
    try:
        path = db.checkpoint()
        print(f"checkpoint written: {path}", file=out)
        tables = ", ".join(
            f"{name}({db.row_count(name)})" for name in db.schema.table_names()
        ) or "no tables"
        print(f"-- {tables}", file=out)
        return 0
    finally:
        db.close()


def _cmd_mapping(args, out) -> int:
    db = _open_database(args)
    try:
        return _cmd_mapping_body(args, db, out)
    finally:
        db.close()


def _cmd_mapping_body(args, db, out) -> int:
    if args.validate:
        mapping = parse_mapping(_read(args.validate))
        problems = validate_mapping(mapping, db, raise_on_error=False)
        if problems:
            for problem in problems:
                print(f"PROBLEM: {problem}", file=out)
            return 1
        print("mapping is consistent with the schema", file=out)
        return 0
    print(mapping_to_turtle(_select_mapping(args, db)), file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
