"""Which functions under ``src/repro`` does anything run?

    python3 tools/reachability.py --work /tmp/reach [--tests tests]
        [--workloads a,b]

Copies ``src``, ``tests`` and ``benchmarks`` into ``--work`` and puts a
``sitecustomize.py`` into the copy's ``src``: every interpreter started
with that ``src`` on ``PYTHONPATH`` — the pytest process and every
``repro serve`` child the suites or the benchmark start — installs a
``sys.setprofile`` / ``threading.setprofile`` hook that records each code
object's first call, per *context*, and writes what it has every 0.2 s
(children are SIGKILLed, so nothing waits for exit).  A context is the
test file running (pytest's ``-p sitecustomize`` sets it before each test
and hands it to children through the environment), ``import`` before the
first test, or ``benchmarks:<workload>`` for one seed-1, 6 s ``--trace 1``
run of a ``BENCHMARK.json`` workload.  An empty ``--tests`` runs no
pytest, an empty ``--workloads`` no workload.

Every code object of ``src/repro`` below module level (functions,
methods, lambdas, comprehensions and class bodies) is then put in at
most one of three lists, written to ``--work`` as text files with a
``summary.json`` of the counts:

* ``unreached.txt`` — no context calls it;
* ``own_tests_only.txt`` — only test files of its own package call it
  (``tests/<package>/`` for ``src/repro/<package>/``, ``tests/test_<m>.py``
  for ``src/repro/<m>.py``);
* ``benchmarks_only.txt`` — only the workload runs call it.

Cost on a 2-core box: the hook slows the suites by roughly a quarter
(tier-1 takes about nine minutes under it), and each workload run is its
set-up plus twice 6 s.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
#: How long each workload run measures (``run.py --seconds``).
SECONDS = 6

#: Installed as ``src/sitecustomize.py`` of the copy; also the pytest
#: plugin (``-p sitecustomize``) that names the context per test file.
HOOK = r'''
import atexit, json, os, sys, threading

_DIR = os.environ.get("REACH_DIR")
if _DIR:
    _codes = {}                     # context -> {id(code): code}
    _seen = [_codes.setdefault(os.environ.get("REACH_CONTEXT", "import"), {})]
    _written = {}                   # context -> count last written
    _lock = threading.Lock()

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen = _seen[0]
            if id(code) not in seen:
                seen[id(code)] = code

    def _switch(context):
        _seen[0] = _codes.setdefault(context, {})
        os.environ["REACH_CONTEXT"] = context  # children inherit it

    def _write():
        with _lock:
            for number, (context, seen) in enumerate(list(_codes.items())):
                if _written.get(context) == len(seen):
                    continue
                _written[context] = len(seen)
                keys = sorted({
                    f"{c.co_filename}:{c.co_firstlineno}:{c.co_qualname}"
                    for c in list(seen.values())
                })
                path = os.path.join(_DIR, f"{os.getpid()}-{number}.json")
                with open(path + ".tmp", "w") as out:
                    json.dump({"context": context, "codes": keys}, out)
                os.replace(path + ".tmp", path)

    def _writer():
        while True:
            threading.Event().wait(0.2)
            try:
                _write()
            except Exception:
                pass

    def _start():
        _written.clear()
        threading.Thread(target=_writer, daemon=True).start()

    sys.setprofile(_hook)
    threading.setprofile(_hook)
    _start()
    os.register_at_fork(after_in_child=_start)
    atexit.register(_write)

    def pytest_runtest_setup(item):
        _switch(item.nodeid.split("::")[0])
'''


def _copy(work: pathlib.Path) -> pathlib.Path:
    copy = work / "copy"
    if copy.exists():
        shutil.rmtree(copy)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "out", ".benchmarks")
    for name in ("src", "tests", "benchmarks"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    (copy / "src" / "sitecustomize.py").write_text(HOOK)
    return copy


def _functions(src: pathlib.Path) -> Iterator[Tuple[str, int, str]]:
    """(file, first line, qualified name) of every code object below
    module level."""

    def walk(code: types.CodeType, path: str) -> Iterator[Tuple[str, int, str]]:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield path, const.co_firstlineno, const.co_qualname
                yield from walk(const, path)

    for path in sorted((src / "repro").rglob("*.py")):
        yield from walk(compile(path.read_text(), str(path), "exec"), str(path))


def _own_tests(path: str, src: pathlib.Path) -> Tuple[str, ...]:
    parts = pathlib.Path(path).relative_to(src / "repro").parts
    if len(parts) == 1:
        return (f"tests/test_{parts[0][:-3]}.py",)
    return (f"tests/{parts[0]}/",)


def _run(command: List[str], copy: pathlib.Path, records: pathlib.Path, context: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), REACH_DIR=str(records),
               REACH_CONTEXT=context)
    print("+", " ".join(command), flush=True)
    return subprocess.call(command, cwd=copy, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, help="scratch directory (emptied)")
    parser.add_argument("--tests", default="tests", help="what pytest runs")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    work = pathlib.Path(args.work).resolve()
    records = work / "records"
    shutil.rmtree(records, ignore_errors=True)
    records.mkdir(parents=True)
    copy = _copy(work)
    if args.tests.split():
        _run([sys.executable, "-m", "pytest", "-q", "-p", "sitecustomize",
              *args.tests.split()], copy, records, "import")
    for workload in filter(None, args.workloads.split(",")):
        _run([sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
              "--seed", "1", "--seconds", str(SECONDS), "--trace", "1"],
             copy, records, f"benchmarks:{workload}")

    reached: Dict[str, Set[str]] = {}
    for record in records.glob("*.json"):
        data = json.loads(record.read_text())
        for key in data["codes"]:
            reached.setdefault(key, set()).add(data["context"])
    src = copy / "src"
    lists: Dict[str, List[str]] = {
        "unreached": [], "own_tests_only": [], "benchmarks_only": []}
    total = by_workloads = 0
    for path, line, name in _functions(src):
        total += 1
        contexts = reached.get(f"{path}:{line}:{name}", set())
        entry = f"{pathlib.Path(path).relative_to(src)}:{line} {name}"
        if any(c.startswith("benchmarks:") for c in contexts):
            by_workloads += 1
        if not contexts:
            lists["unreached"].append(entry)
        elif all(c.startswith(_own_tests(path, src)) for c in contexts):
            lists["own_tests_only"].append(entry)
        elif all(c.startswith("benchmarks:") for c in contexts):
            lists["benchmarks_only"].append(entry)
    for name, entries in lists.items():
        (work / f"{name}.txt").write_text("".join(e + "\n" for e in entries))
    summary = {"functions": total, "reached_by_workloads": by_workloads,
               **{name: len(entries) for name, entries in lists.items()}}
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
