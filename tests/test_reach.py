"""The reachability collector (``tests/reach.py``) reports exactly the defs a
run never called: plain, decorated and method defs alike, with ``cProfile``
switched on and off in the middle of the run."""

import cProfile
import importlib.util

from tests.reach import Collector, unreached

PLANTED = '''
import functools


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


def called():
    return 1


def uncalled():
    return 2


@decorate
def decorated():
    return 3


class Thing:
    def method(self):
        return 4
'''


def test_only_the_uncalled_def_is_reported(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", path)
    planted = importlib.util.module_from_spec(spec)
    profiler = cProfile.Profile()
    collector = Collector()
    collector.start()
    try:
        spec.loader.exec_module(planted)
        planted.called()
        profiler.enable()
        planted.decorated()
        profiler.disable()
        planted.Thing().method()
    finally:
        collector.stop()
    reached = collector.keys(str(tmp_path))
    assert [d.qualname for d in unreached(reached, tmp_path)] == ["uncalled"]
