"""Tests of the benchmark's own tracer and metric list.

Run from the repository root:  python3 -m pytest bench
"""

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from spans import Tracer, blind_spots, self_times  # noqa: E402


class FakeClock:
    """Advances by a fixed step at every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _module(name: str, source: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    middle = tracer.wrap(middle, "middle")
    root = tracer.begin("root")     # clock 1
    middle()                        # middle 2..7, leaves 3..4 and 5..6
    leaf()                          # 8..9
    tracer.end(root)                # 10

    by_name = self_times(tracer.spans)
    assert by_name["leaf"] == (3.0, 3)
    assert by_name["middle"] == (5.0 - 2.0, 1)
    assert by_name["root"] == (9.0 - 5.0 - 1.0, 1)
    total_self = sum(t for t, _ in by_name.values())
    assert total_self == tracer.spans[0].duration
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]


def test_install_patches_aliases_and_uninstall_restores():
    home = _module("home", "def f(x):\n    return _g(x) + 1\n"
                           "def _g(x):\n    return 2 * x\n")
    user = _module("user", "def h(x):\n    return f(x)\n")
    user.f = home.f                 # as ``from .home import f`` binds it
    original_f, original_h = home.f, user.h
    tracer = Tracer(clock=FakeClock())

    wrapped = tracer.install({"home": home, "user": user})
    assert wrapped == ["home.f", "user.h"]
    assert user.h(3) == 7
    assert [s.name for s in tracer.spans] == ["user.h", "home.f"]

    tracer.uninstall()
    assert home.f is original_f and user.f is original_f and user.h is original_h


def test_observer_counts_and_namer():
    tracer = Tracer(clock=FakeClock())
    fn = tracer.wrap(lambda n: list(range(n)), "make",
                     namer=lambda args, kwargs: f"make.{args[0]}",
                     observer=lambda t, result, args, kwargs: t.count("items", len(result)))
    fn(2)
    fn(3)
    assert tracer.counts == {"items": 5}
    assert [s.name for s in tracer.spans] == ["make.2", "make.3"]


def test_blind_spots_lists_dispatch_tables():
    mod = _module("cmds", "def run(x):\n    return x\nTABLE = {'go': run}\n")
    assert blind_spots({"cmds": mod}) == ["cmds.TABLE['go'] -> cmds.run"]


def test_benchmark_json_lists_the_emitted_metrics():
    import workloads

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["per_layer"] == workloads.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
