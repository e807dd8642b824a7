"""List the ``src/`` functions that no entry point of the project calls,
and the options that every entry point leaves at one value.

Copies ``src/``, ``examples/``, ``perfbench/`` and ``BENCHMARK.json``
into a temporary directory and drops a ``sitecustomize.py`` into the
copy's ``src/``.  Every Python process started with that ``src/`` on
``PYTHONPATH`` -- each command below, the ``serve`` child ``perfbench``
starts with its own ``PYTHONPATH``, and the shard workers ``serve``
forks -- then records the ``(co_filename, co_firstlineno)`` of every
Python call it makes (``sys.setprofile`` and ``threading.setprofile``)
and writes them out at exit: on ``atexit``, and from a wrapped
``os._exit``, which is how forked workers leave.  The recorder starts
no thread: one would make ``serve`` exec its workers instead of
forking them.  For each defaulted parameter of a ``src/`` function
(listed in ``defaults.json`` beside the copy's ``src/``) it also
records the values the calls bound: the ``repr`` of a scalar (None,
bool, int, float or str), the type name of anything else, and at most
two distinct values per parameter.

The entry points run:

* the four ``examples/*.py``;
* ``python -m repro.experiments all --scale smoke``;
* every ``python -m repro.serving`` subcommand on a forum bundle (the
  one CI's smoke jobs fit), ``serve`` answering one ``/score`` and one
  ``/similar`` request before SIGTERM;
* both ``perfbench`` workloads, at ``--trace 0`` and ``--trace 1``.

A recorded call is matched to a function of the source by its first
line: a decorated function's code object starts at its first
decorator.  Only module-level functions and methods (of classes at any
depth) are listed; a nested function or lambda belongs to the function
that defines it.

A second section lists the *single-valued options*: each defaulted
parameter of a reached function that every recorded call bound to one
and the same scalar, marked ``default`` when that scalar is its
default (no caller set it to anything else).  A parameter that saw a
second value or a non-scalar one is an option in use and is not
listed.  The recorder runs no ``benchmarks/*.py`` script and no CI
step's inline Python, and a dataclass's generated ``__init__`` has no
source to match: grep those for a listed parameter before retiring
it.  Run from anywhere, it takes about a minute on 2 CPUs::

    python benchmarks/reachability.py > unreached.txt

A failing entry point exits 1 after printing its output, since the
lists would then be incomplete.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SITECUSTOMIZE = '''\
"""Call recorder loaded into every process of a reachability run."""
import atexit
import json
import os
import sys
import threading

_SRC = os.path.dirname(os.path.abspath(__file__))
_PREFIX = _SRC + os.sep
_CALLS = os.path.join(os.path.dirname(_SRC), "calls")
_SCALARS = (bool, int, float, str)
_UNSET = object()
_seen = {}
# id(code) -> {parameter: (values, last value)} still recorded; a
# parameter leaves once it has bound two values or a non-scalar one
_open = {}
_values = []  # (code, {parameter: values}) of every watched code
try:
    with open(os.path.join(os.path.dirname(_SRC), "defaults.json")) as fh:
        _DEFAULTED = json.load(fh)
except OSError:
    _DEFAULTED = {}


def _watch(code):
    """The defaulted parameters of ``code`` to record, or None."""
    if not code.co_filename.startswith(_PREFIX):
        return None
    relative = code.co_filename[len(_PREFIX):]
    names = _DEFAULTED.get(f"{relative}:{code.co_firstlineno}")
    if not names:
        return None
    values = {name: set() for name in names}
    _values.append((code, values))
    return {name: (seen, _UNSET) for name, seen in values.items()}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            _open[id(code)] = _watch(code)
        watching = _open[id(code)]
        if watching:
            bound = frame.f_locals
            for name, (seen, last) in list(watching.items()):
                # the same object again (or a parameter a resumed
                # generator deleted): nothing new to record
                value = bound.get(name, last)
                if value is last:
                    continue
                if value is None or isinstance(value, _SCALARS):
                    seen.add(repr(value)[:80])
                    if len(seen) < 2:
                        watching[name] = (seen, value)
                        continue
                else:
                    seen.add(f"<{type(value).__name__}>")
                watching.pop(name, None)


def _dump():
    rows = sorted({
        f"{code.co_filename}\\t{code.co_firstlineno}\\n"
        for code in list(_seen.values())
        if code.co_filename.startswith(_PREFIX)
    })
    rows += sorted({
        f"{code.co_filename}\\t{code.co_firstlineno}\\t{name}\\t{value}\\n"
        for code, values in list(_values)
        for name, seen in list(values.items())
        for value in list(seen)
    })
    name = f"{os.getpid()}-{len(os.listdir(_CALLS))}.tsv"
    with open(os.path.join(_CALLS, name), "w") as fh:
        fh.writelines(rows)


def _exit(status, _real_exit=os._exit):
    _dump()
    _real_exit(status)


os._exit = _exit
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

FORUM_BUNDLE = """\
import json
from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network

network = political_forum_network()
config = GenClusConfig(n_clusters=2, outer_iterations=4, seed=0)
GenClus(config).fit(network, attributes=["text"]).save("forum.bundle")
queries = [
    {"object_type": "user", "links": [["writes", "blog0_1"]]},
    {"object_type": "user", "links": [["writes", "blog1_1"]]},
    {"object_type": "user"},
    {"object_type": "user", "links": [["writes", "blog0_2"]]},
    {"object_type": "user", "links": [["writes", "blog1_2"]]},
]
with open("batch.json", "w") as fh:
    json.dump(queries, fh)
"""

SERVING = [
    ["info", "forum.bundle"],
    ["info", "forum.bundle", "--json", "--mmap"],
    ["score", "forum.bundle", "--type", "user", "--link", "writes=blog0_1",
     "--link", "likes=book0_2:2.0", "--text", "text=green,climate"],
    ["score", "forum.bundle", "--batch", "batch.json", "--json", "--mmap"],
    ["similar", "forum.bundle", "--node", "user0_0", "-k", "3"],
    ["similar", "forum.bundle", "--node", "user0_0", "--shards", "2",
     "--json"],
    ["suggest-links", "forum.bundle", "--node", "user0_0", "--relation",
     "likes", "--json"],
    ["shard-plan", "forum.bundle", "--shards", "3"],
    ["shard-plan", "forum.bundle", "--shards", "2", "--json"],
    ["metrics", "forum.bundle", "--shards", "3", "--batch", "batch.json"],
    ["metrics", "forum.bundle", "--json"],
    ["trace", "forum.bundle", "--shards", "3", "--batch", "batch.json",
     "--jsonl", "trace.jsonl"],
    ["chaos", "forum.bundle", "--shards", "3", "--fail-shard", "1",
     "--batch", "batch.json", "--jsonl", "chaos.jsonl"],
]


@dataclass(frozen=True)
class Function:
    """A module-level function or a method, spanning ``first..last``
    (``first`` is its first decorator's line when decorated), with its
    defaulted parameters as ``(name, default)`` pairs (the default as
    the ``repr`` the recorder would write for it)."""

    name: str
    first: int
    last: int
    defaults: tuple[tuple[str, str], ...] = ()

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(source: str) -> list[Function]:
    """The module-level functions and methods of ``source``, in order.

    Compound statements (``if``, ``try``, ``with``) at module or class
    level are searched too; function bodies are not.
    """
    found: list[Function] = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [node.lineno]
                    + [d.lineno for d in node.decorator_list]
                )
                found.append(
                    Function(
                        prefix + node.name,
                        first,
                        node.end_lineno,
                        _defaults(node.args),
                    )
                )
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []), prefix)

    visit(ast.parse(source).body, "")
    return found


def _defaults(args: ast.arguments) -> tuple[tuple[str, str], ...]:
    """``(name, default)`` of each parameter that has a default."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[::-1], args.defaults[::-1]))[::-1]
    pairs += [
        (arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    found = []
    for arg, default in pairs:
        try:
            text = repr(ast.literal_eval(default))[:80]
        except ValueError:  # not a literal: no recorded value equals it
            text = ast.unparse(default)
        found.append((arg.arg, text))
    return tuple(found)


def unreached(source: str, called_lines: set[int]) -> list[Function]:
    """The functions of ``source`` whose first line no recorded call
    started at."""
    return [f for f in functions(source) if f.first not in called_lines]


def single_valued(
    function: Function, values: dict[str, set[str]]
) -> list[tuple[str, str, bool]]:
    """``(parameter, value, is_default)`` for each defaulted parameter
    of ``function`` that every recorded call bound to one scalar.

    ``values`` maps a parameter to the values recorded for it; a
    non-scalar is recorded as ``<TypeName>`` and never counts.
    """
    found = []
    for name, default in function.defaults:
        seen = values.get(name, set())
        if len(seen) == 1:
            (value,) = seen
            if not value.startswith("<"):
                found.append((name, value, value == default))
    return found


def write_defaults(src: Path, target: Path) -> None:
    """Write ``target/defaults.json``: the defaulted parameter names of
    every function under ``src``, keyed ``"<path in src>:<first>"``
    as the recorder looks them up."""
    table = {}
    for path in sorted(src.rglob("*.py")):
        for f in functions(path.read_text()):
            if f.defaults:
                key = f"{path.relative_to(src)}:{f.first}"
                table[key] = [name for name, _ in f.defaults]
    (target / "defaults.json").write_text(json.dumps(table))


def _copy_tree(tree: Path) -> None:
    ignore = shutil.ignore_patterns(
        "__pycache__", "*.egg-info", ".perfbench_work"
    )
    for name in ("src", "examples", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    write_defaults(tree / "src", tree)
    (tree / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE)
    (tree / "calls").mkdir()
    (tree / "work").mkdir()


def _run(command: list[str], env: dict, cwd: Path) -> None:
    shown = " ".join(arg.splitlines()[0] for arg in command[1:])
    print("+ " + shown, file=sys.stderr, flush=True)
    done = subprocess.run(
        command, env=env, cwd=cwd, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"entry point failed: {shown}")


def _post(url: str, payload: dict) -> None:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        response.read()


def _serve(env: dict, cwd: Path) -> None:
    print("+ -m repro.serving serve forum.bundle", file=sys.stderr)
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "serve", "forum.bundle",
         "--shards", "2", "--port", "0"],
        env=env, cwd=cwd, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = serve.stdout.readline()
        if not line.startswith("READY "):
            raise SystemExit(f"serve did not start: {line!r}")
        url = line.split()[1]
        _post(url + "/score", {"queries": [
            {"object_type": "user", "links": [["writes", "blog0_1"]]}
        ]})
        _post(url + "/similar", {"nodes": ["user0_0"], "k": 3})
    finally:
        serve.send_signal(signal.SIGTERM)
        if serve.wait(timeout=60) != 0:
            raise SystemExit(f"serve exited with {serve.returncode}")


def record(tree: Path) -> None:
    """Run every entry point in ``tree``; the recorder's dumps land in
    ``tree/calls``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    work = tree / "work"
    python = sys.executable
    for example in sorted((tree / "examples").glob("*.py")):
        _run([python, str(example)], env, work)
    _run([python, "-m", "repro.experiments", "all", "--scale", "smoke"],
         env, work)
    _run([python, "-c", FORUM_BUNDLE], env, work)
    for arguments in SERVING:
        _run([python, "-m", "repro.serving", *arguments], env, work)
    _serve(env, work)
    for workload in ("weather_http", "dblp_train"):
        for trace in ("0", "1"):
            _run([python, str(tree / "perfbench" / "run.py"),
                  "--workload", workload, "--seconds", "2",
                  "--trace", trace], env, work)


def read_calls(calls: Path) -> dict[Path, set[int]]:
    """Merge the recorder's dumps: the first lines called, per file."""
    called: dict[Path, set[int]] = {}
    for dump in calls.iterdir():
        for row in dump.read_text().splitlines():
            fields = row.split("\t")
            if len(fields) == 2:
                called.setdefault(Path(fields[0]), set()).add(int(fields[1]))
    return called


def read_values(
    calls: Path,
) -> dict[tuple[Path, int], dict[str, set[str]]]:
    """Merge the recorder's dumps: the values bound to each defaulted
    parameter, per ``(file, first line)`` of the function."""
    values: dict[tuple[Path, int], dict[str, set[str]]] = {}
    for dump in calls.iterdir():
        for row in dump.read_text().splitlines():
            fields = row.split("\t")
            if len(fields) == 4:
                filename, line, name, value = fields
                key = (Path(filename), int(line))
                values.setdefault(key, {}).setdefault(name, set()).add(value)
    return values


def report(
    src: Path,
    called: dict[Path, set[int]],
    values: dict[tuple[Path, int], dict[str, set[str]]],
) -> None:
    total_functions = total_lines = missed_functions = missed_lines = 0
    for path in sorted(src.rglob("*.py")):
        if path.name == "sitecustomize.py":
            continue
        source = path.read_text()
        every = functions(source)
        missed = unreached(source, called.get(path, set()))
        total_functions += len(every)
        total_lines += sum(f.lines for f in every)
        missed_functions += len(missed)
        missed_lines += sum(f.lines for f in missed)
        if missed:
            print(path.relative_to(src.parent))
            for f in missed:
                print(f"  {f.first:>5}-{f.last:<5} {f.lines:>4}  {f.name}")
    print(
        f"unreached: {missed_functions} of {total_functions} functions, "
        f"{missed_lines} of {total_lines} lines"
    )
    print()
    print("single-valued options (defaulted parameters of reached")
    print("functions that every recorded call bound to one scalar):")
    total_parameters = single = 0
    for path in sorted(src.rglob("*.py")):
        if path.name == "sitecustomize.py":
            continue
        lines = called.get(path, set())
        listed = []
        for f in functions(path.read_text()):
            if f.first not in lines:
                continue
            total_parameters += len(f.defaults)
            for name, value, is_default in single_valued(
                f, values.get((path, f.first), {})
            ):
                mark = "default" if is_default else "set"
                listed.append(
                    f"  {f.first:>5}  {f.name}({name}={value})  {mark}"
                )
        single += len(listed)
        if listed:
            print(path.relative_to(src.parent))
            print("\n".join(listed))
    print(
        f"single-valued: {single} of {total_parameters} defaulted "
        f"parameters of reached functions"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        record(tree)
        report(
            tree / "src",
            read_calls(tree / "calls"),
            read_values(tree / "calls"),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
