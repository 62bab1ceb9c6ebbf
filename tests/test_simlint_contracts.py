"""Tests for simlint v2: the project pass and the hot-core contract rules.

Covers :mod:`repro.analysis.project` (module naming, call-graph edges,
hot-set seeding and closure) and the four contract rules from
:mod:`repro.analysis.contracts` — each with a positive fixture, a clean
fixture, and a suppression fixture, mirroring the executable-spec style
of ``tests/test_simlint_rules.py``.  The ``TestSeededViolations`` class
is the in-repo mirror of the CI negative tests: each new rule must flag
a violation planted into a copy of the real tree.
"""

from __future__ import annotations

import shutil
import textwrap

from repro.analysis import (
    RULE_REGISTRY,
    Project,
    iter_python_files,
    parse_module,
    project_graph,
    run_lint,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.analysis.project import module_name


def lint(tmp_path, source, rules, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    instances = [RULE_REGISTRY[r]() for r in rules]
    return run_lint([str(path)], rules=instances).findings


def graph_of(tmp_path, sources):
    project = Project()
    for name, source in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        project.modules.append(parse_module(str(path)))
    return project_graph(project)


class TestModuleName:
    def test_src_layout_maps_to_dotted_name(self):
        assert module_name("src/repro/network/peer.py") == "repro.network.peer"

    def test_init_maps_to_package(self):
        assert module_name("src/repro/analysis/__init__.py") == "repro.analysis"

    def test_fixture_path_maps_to_stem(self):
        assert module_name("tmp/pytest-1/test0/transfer.py") == "transfer"


class TestCallGraph:
    def test_schedule_positional_arg_seeds_hot_set(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                def kick(engine):
                    engine.schedule(1.0, worker)

                def worker():
                    helper()

                def helper():
                    pass

                def cold():
                    pass
                """
            },
        )
        assert graph.is_hot("mod:worker")
        assert graph.is_hot("mod:helper")  # transitive closure
        assert not graph.is_hot("mod:cold")
        assert not graph.is_hot("mod:kick")  # scheduling is not dispatch

    def test_callback_keyword_and_param_convention_seed(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class Periodic:
                    def __init__(self, engine, interval, callback):
                        self._callback = callback

                def install(engine):
                    Periodic(engine, 5.0, tick)

                def tick():
                    pass
                """
            },
        )
        assert graph.is_hot("mod:tick")

    def test_lambda_callback_seeds_its_callees(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class Director:
                    def start(self, engine):
                        engine.schedule(1.0, lambda: self._fire(3))

                    def _fire(self, n):
                        pass
                """
            },
        )
        assert graph.is_hot("mod:Director._fire")

    def test_self_method_resolution_prefers_own_class(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class A:
                    def go(self, engine):
                        engine.schedule(0.0, self.run)

                    def run(self):
                        self.step()

                    def step(self):
                        pass
                """
            },
        )
        assert graph.is_hot("mod:A.run")
        assert graph.is_hot("mod:A.step")

    def test_cross_module_from_import_module_call(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/pkg/a.py": """\
                from pkg import b

                def go(engine):
                    engine.schedule(0.0, loop)

                def loop():
                    b.work()
                """,
                "src/pkg/b.py": """\
                def work():
                    pass
                """,
            },
        )
        assert graph.is_hot("pkg.b:work")
        assert "pkg.b" in graph.imports["pkg.a"]

    def test_hot_reason_names_the_seed(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                def kick(engine):
                    engine.schedule(1.0, worker)

                def worker():
                    helper()

                def helper():
                    pass
                """
            },
        )
        assert graph.hot_reason("mod:worker") == "scheduled as an Engine callback"
        assert "mod:worker" in graph.hot_reason("mod:helper")


HOT_FIXTURE = """\
def kick(engine):
    engine.schedule(1.0, worker)

def worker():
    stats = {{"a": 1}}
    return stats
"""


class TestHOT001:
    def test_dict_in_hot_function_of_hot_module_is_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE.format(), ["HOT001"], name="transfer.py")
        assert [f.rule for f in findings] == ["HOT001"]
        assert "worker" in findings[0].message

    def test_cold_function_is_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def never_scheduled():
                return {"a": 1}
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert findings == []

    def test_non_hot_module_is_not_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE.format(), ["HOT001"], name="summary.py")
        assert findings == []

    def test_dunder_methods_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def __init__(self):
                    self.pending = {}

                def go(self, engine):
                    engine.schedule(0.0, self.run)

                def run(self):
                    Peer()
            """,
            ["HOT001"],
            name="peer.py",
        )
        assert findings == []

    def test_record_constructor_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def kick(engine):
                engine.schedule(1.0, worker)

            def worker(metrics):
                metrics.add_session(SessionRecord(1, 2.0))
            """,
            ["HOT001"],
            name="strategy.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'SessionRecord'" in findings[0].message

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def kick(engine):
                engine.schedule(1.0, worker)

            def worker():
                scratch = {}  # simlint: disable=HOT001 -- amortized per pass
                return scratch
            """,
            ["HOT001"],
            name="irq.py",
        )
        assert findings == []


class TestNUM001:
    def test_np_sum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import numpy as np

            def total(values):
                return np.sum(values)
            """,
            ["NUM001"],
            name="aggregates.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]
        assert "np.sum" in findings[0].message

    def test_math_fsum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import math

            def total(values):
                return math.fsum(values)
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_method_sum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def total(arr):\n    return arr.sum()\n",
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_bare_sum_requires_explicit_start(self, tmp_path):
        findings = lint(
            tmp_path,
            "def total(values):\n    return sum(values)\n",
            ["NUM001"],
            name="aggregates.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_left_fold_with_start_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            "def total(values):\n    return sum(values, 0.0)\n",
            ["NUM001"],
            name="columnar.py",
        )
        assert findings == []

    def test_other_modules_are_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            "import numpy as np\n\ndef total(v):\n    return np.sum(v)\n",
            ["NUM001"],
            name="peer_table.py",
        )
        assert findings == []

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def nbytes(chunks):
                return sum(c.nbytes for c in chunks)  # simlint: disable=NUM001 -- int tally, no rounding
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert findings == []


class TestMIR001:
    def test_store_without_write_through_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def disconnect(self):
                    self.online = False
            """,
            ["MIR001"],
        )
        assert [f.rule for f in findings] == ["MIR001"]
        assert "'online'" in findings[0].message

    def test_paired_store_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def disconnect(self):
                    self.online = False
                    self.ctx.peer_table.set_online(self.peer_id, False)
            """,
            ["MIR001"],
        )
        assert findings == []

    def test_non_self_receiver_is_also_checked(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def retire(peer):
                peer.departed = True
            """,
            ["MIR001"],
        )
        assert [f.rule for f in findings] == ["MIR001"]

    def test_register_counts_only_on_a_peer_table_receiver(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def setup(self, ctx):
                    self.online = True
                    ctx.lookup.register(self.peer_id, 1)
            """,
            ["MIR001"],
        )
        assert [f.rule for f in findings] == ["MIR001"]
        clean = lint(
            tmp_path,
            """\
            class Peer:
                def setup(self, ctx):
                    self.online = True
                    ctx.peer_table.register(self.peer_id, online=True)
            """,
            ["MIR001"],
            name="other.py",
        )
        assert clean == []

    def test_peer_state_table_class_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import numpy as np

            class PeerStateTable:
                def reset(self, capacity):
                    self.online = np.zeros(capacity, dtype=bool)
            """,
            ["MIR001"],
        )
        assert findings == []

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def fixup(peer):
                peer.online = True  # simlint: disable=MIR001 -- test-only fixture mutation
            """,
            ["MIR001"],
        )
        assert findings == []


class TestVER001:
    def test_unbumped_subscript_store_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
            """,
            ["VER001"],
        )
        assert [f.rule for f in findings] == ["VER001"]
        assert "self.rows" in findings[0].message

    def test_bumped_mutation_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
                    self.version += 1
            """,
            ["VER001"],
        )
        assert findings == []

    def test_chained_mutator_call_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.buckets = {}

                def put(self, key, value):
                    self.buckets.setdefault(key, []).append(value)
            """,
            ["VER001"],
        )
        assert findings and all(f.rule == "VER001" for f in findings)

    def test_unversioned_class_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Plain:
                def __init__(self):
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
            """,
            ["VER001"],
        )
        assert findings == []

    def test_whole_attribute_rebind_is_not_counted(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def compact(self):
                    self.rows = dict(self.rows)
            """,
            ["VER001"],
        )
        assert findings == []

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.cache = {}

                def lookup(self, key):
                    self.cache[key] = compute(key)  # simlint: disable=VER001 -- version-keyed cache
                    return self.cache[key]
            """,
            ["VER001"],
        )
        assert findings == []


class TestSeededViolations:
    """In-repo mirror of the CI negative tests: plant one violation per
    new rule into a copy of the real tree and require a non-zero exit."""

    def _seeded_tree(self, tmp_path):
        import os

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
        dest = tmp_path / "repro"
        shutil.copytree(src, dest)
        return dest

    def _assert_flags(self, tmp_path, capsys, relpath, snippet, rule):
        tree = self._seeded_tree(tmp_path)
        target = tree / relpath
        target.write_text(
            target.read_text(encoding="utf-8") + textwrap.dedent(snippet),
            encoding="utf-8",
        )
        assert main([str(tree)]) == EXIT_FINDINGS
        assert rule in capsys.readouterr().out

    def test_clean_copy_passes(self, tmp_path, capsys):
        tree = self._seeded_tree(tmp_path)
        assert main([str(tree)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_seeded_hot001(self, tmp_path, capsys):
        self._assert_flags(
            tmp_path,
            capsys,
            "core/exchange_manager.py",
            """\

            def _seeded_hot(peer):
                peer.ctx.engine.schedule(0.0, _seeded_hot_cb)

            def _seeded_hot_cb():
                return {"seeded": True}
            """,
            "HOT001",
        )

    def test_seeded_num001(self, tmp_path, capsys):
        self._assert_flags(
            tmp_path,
            capsys,
            "metrics/aggregates.py",
            """\

            def _seeded_num(values):
                return np.sum(values)
            """,
            "NUM001",
        )

    def test_seeded_mir001(self, tmp_path, capsys):
        self._assert_flags(
            tmp_path,
            capsys,
            "network/peer.py",
            """\

            def _seeded_mir(peer):
                peer.online = False
            """,
            "MIR001",
        )

    def test_seeded_ver001(self, tmp_path, capsys):
        self._assert_flags(
            tmp_path,
            capsys,
            "core/peer_table.py",
            """\

            class _SeededVersioned:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def put(self, key):
                    self.rows[key] = key
            """,
            "VER001",
        )

    def test_seeded_rng002_in_adversaries(self, tmp_path, capsys):
        # An unsanctioned draw in the attacker layer: sampling whitewash
        # targets without naming the "adversary" stream must be flagged.
        self._assert_flags(
            tmp_path,
            capsys,
            "security/adversaries.py",
            """\

            def _seeded_pick_targets(rng, candidate_ids):
                return rng.sample(candidate_ids, 1)
            """,
            "RNG002",
        )

    def test_seeded_det002_in_adversaries(self, tmp_path, capsys):
        # Drawing from an unordered pool is nondeterministic even on the
        # sanctioned stream: set iteration order feeds the sampler.
        self._assert_flags(
            tmp_path,
            capsys,
            "security/adversaries.py",
            """\

            def _seeded_pick_clique(rng, state):
                pool = {1, 2, 3}
                return rng.sample(pool, 1, stream="adversary")
            """,
            "DET002",
        )
