"""Launcher of the in-memory HTTP workload's server process.

Loads the dataset file the benchmark generated into an in-memory
``Database`` and serves it through the public
``repro.server.endpoint.OntoAccessEndpoint`` with the same defaults as
``repro serve``; the benchmark starts this file as a subprocess, reads the
announced address from stdout, and SIGKILLs it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro import OntoAccess  
from repro.server.endpoint import OntoAccessEndpoint
from repro.workloads.generator import Dataset, populate_database
from repro.workloads.publication import build_database, build_mapping


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True, help="JSON of a Dataset")
    parser.add_argument("--access-log")
    args = parser.parse_args()

    with open(args.dataset, "r", encoding="utf-8") as handle:
        dataset = Dataset(**json.load(handle))
    db = build_database()
    with db.transaction():
        populate_database(db, dataset)
    mediator = OntoAccess(db, build_mapping(db))
    access_log = open(args.access_log, "a", encoding="utf-8") if args.access_log else None
    with OntoAccessEndpoint(mediator, port=0, access_log=access_log) as endpoint:
        print(f"OntoAccess endpoint at {endpoint.url}", flush=True)
        threading.Event().wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
