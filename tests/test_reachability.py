"""Tests for the call recorder of ``benchmarks/reachability.py``: which
recorded calls count as reaching which function of the source."""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from reachability import (
    SITECUSTOMIZE,
    functions,
    read_calls,
    read_values,
    single_valued,
    unreached,
    write_defaults,
)

FIXTURE = '''\
import functools


def decorate(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@decorate
def decorated():
    def nested():
        return 1

    return nested()


@decorate
def decorated_unused():
    return 0


class Thing:
    @property
    def size(self):
        return 3

    @property
    def unused_size(self):
        return 4

    def method(self):
        return self.size

    def unused_method(self):
        return 5

    class Inner:
        def inner_method(self):
            return 6


def outer_unused():
    def nested_unused():
        return 7

    return nested_unused
'''

# the main process calls decorated(), a forked child (which leaves
# through os._exit, as serve's shard workers do) calls Thing().method(),
# and a thread calls Thing.Inner().inner_method()
DRIVER = """\
import os
import threading

import fixture

fixture.decorated()
pid = os.fork()
if pid == 0:
    fixture.Thing().method()
    os._exit(0)
os.waitpid(pid, 0)
thread = threading.Thread(target=lambda: fixture.Thing.Inner().inner_method())
thread.start()
thread.join()
"""


def test_functions_start_at_first_decorator_and_skip_nested():
    found = {f.name: (f.first, f.last) for f in functions(FIXTURE)}
    assert list(found) == [
        "decorate",
        "decorated",
        "decorated_unused",
        "Thing.size",
        "Thing.unused_size",
        "Thing.method",
        "Thing.unused_method",
        "Thing.Inner.inner_method",
        "outer_unused",
    ]
    lines = FIXTURE.splitlines()
    assert lines[found["decorated"][0] - 1] == "@decorate"
    assert lines[found["Thing.size"][0] - 1] == "    @property"
    assert lines[found["outer_unused"][1] - 1] == "    return nested_unused"


def test_recorded_calls_match_the_functions_they_reach(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (tmp_path / "calls").mkdir()
    (src / "sitecustomize.py").write_text(SITECUSTOMIZE)
    (src / "fixture.py").write_text(FIXTURE)
    subprocess.run(
        [sys.executable, "-c", DRIVER],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        check=True,
    )
    called = read_calls(tmp_path / "calls")
    # one dump from the main process, one from the forked child
    assert len(list((tmp_path / "calls").iterdir())) == 2
    lines = called[src / "fixture.py"]
    assert [f.name for f in unreached(FIXTURE, lines)] == [
        "decorated_unused",
        "Thing.unused_size",
        "Thing.unused_method",
        "outer_unused",
    ]


OPTIONS = """\
def knobs(rows, flag=False, size=3, *, mode="x", obj=None, fixed=7):
    return rows


def unused(value=1):
    return value
"""

# flag is always set to one value, mode and fixed are never passed,
# size takes two values and obj a non-scalar: only the first three
# are single-valued options
OPTIONS_DRIVER = """\
import options

options.knobs(1, flag=True, obj=[1])
options.knobs(2, True, 4, obj=None)
"""


def test_recorder_reports_single_valued_options(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (tmp_path / "calls").mkdir()
    (src / "options.py").write_text(OPTIONS)
    write_defaults(src, tmp_path)
    (src / "sitecustomize.py").write_text(SITECUSTOMIZE)
    subprocess.run(
        [sys.executable, "-c", OPTIONS_DRIVER],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        check=True,
    )
    knobs, unused = functions(OPTIONS)
    assert knobs.defaults == (
        ("flag", "False"),
        ("size", "3"),
        ("mode", "'x'"),
        ("obj", "None"),
        ("fixed", "7"),
    )
    path = src / "options.py"
    assert read_calls(tmp_path / "calls")[path] == {knobs.first}
    values = read_values(tmp_path / "calls")
    assert values[(path, knobs.first)]["size"] == {"3", "4"}
    assert values[(path, knobs.first)]["obj"] == {"<list>"}
    assert single_valued(knobs, values[(path, knobs.first)]) == [
        ("flag", "True", False),
        ("mode", "'x'", True),
        ("fixed", "7", True),
    ]
    assert (path, unused.first) not in values
