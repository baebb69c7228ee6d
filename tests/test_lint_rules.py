"""The `repro lint` static-analysis toolkit: rules, engine, CLI.

Every rule has a pair of fixtures under ``tests/lint_fixtures/``: a
``*_trip.py`` that must trip the rule exactly once (and nothing else), and
a ``*_clean.py`` twin that must pass untouched.  On top of the fixture
matrix: mechanical ``--fix`` application, the JSON output contract, the
layering config, and the repo-wide gate (``src/`` lints with 0 findings).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.check.lint import (
    Finding,
    LayersConfig,
    all_rules,
    apply_fixes,
    run_lint,
)
from repro.check.lint.engine import load_module, module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

RULE_IDS = (
    "DET101", "DET102", "DET103", "DET104",
    "ARCH201", "ARCH202", "ARCH203",
    "ASY401", "ASY402", "ASY403", "ASY404",
    "PRO502",
)


def lint_one(path: Path, **kw) -> list[Finding]:
    return run_lint([path], root=REPO_ROOT, **kw).findings


class TestRuleFixtures:
    def test_every_rule_has_fixtures(self):
        ids = {r.id for r in all_rules()}
        assert ids == set(RULE_IDS)
        for rule_id in ids:
            assert (FIXTURES / f"{rule_id.lower()}_trip.py").exists()
            assert (FIXTURES / f"{rule_id.lower()}_clean.py").exists()

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_trip_fixture_trips_exactly_once(self, rule_id):
        findings = lint_one(FIXTURES / f"{rule_id.lower()}_trip.py")
        assert [f.rule for f in findings] == [rule_id], findings

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_twin_passes(self, rule_id):
        findings = lint_one(FIXTURES / f"{rule_id.lower()}_clean.py")
        assert findings == []

    def test_rule_catalogue_is_documented(self):
        for rule in all_rules():
            assert rule.name, rule.id
            assert len(rule.rationale) > 20, rule.id

    def test_finding_carries_symbol_and_snippet(self):
        (finding,) = lint_one(FIXTURES / "det101_trip.py")
        assert finding.symbol == "stamp_event"
        assert "time.time()" in finding.snippet
        assert finding.line > 0 and finding.col >= 0


class TestDeterminismRules:
    def test_det102_flags_global_stream_and_legacy_numpy(self, tmp_path):
        src = (
            "# lint-fixture-module: repro.core.tmp\n"
            "import random\nimport numpy as np\n"
            "def f():\n"
            "    a = random.random()\n"
            "    b = np.random.rand(3)\n"
            "    c = np.random.default_rng(None)\n"
            "    return a, b, c\n"
        )
        p = tmp_path / "m.py"
        p.write_text(src)
        findings = run_lint([p], root=tmp_path).findings
        assert [f.rule for f in findings] == ["DET102"] * 3

    def test_det103_allowed_in_hashing_module(self, tmp_path):
        src = (
            "# lint-fixture-module: repro.dht.hashing\n"
            "def f(s):\n    return hash(s)\n"
        )
        p = tmp_path / "m.py"
        p.write_text(src)
        assert run_lint([p], root=tmp_path).findings == []

    def test_det104_ignores_sets_without_scheduling(self, tmp_path):
        src = (
            "# lint-fixture-module: repro.core.tmp\n"
            "def f(xs):\n    return [x for x in set(xs)]\n"
        )
        p = tmp_path / "m.py"
        p.write_text(src)
        assert run_lint([p], root=tmp_path).findings == []

    def test_outside_package_is_ignored(self, tmp_path):
        p = tmp_path / "free.py"
        p.write_text("import time\nt = time.time()\n")
        assert run_lint([p], root=tmp_path).findings == []


class TestLayersConfig:
    def test_default_contract_loads_and_validates(self):
        cfg = LayersConfig.load()
        assert cfg.package == "repro"
        assert cfg.layer_of("repro.util.bits") == "util"
        assert cfg.layer_of("repro.cli") == "app"
        assert cfg.layer_of("numpy.random") is None

    def test_allowed_edges(self):
        cfg = LayersConfig.load()
        assert cfg.allowed("repro.core.routing", "repro.metric.base")
        assert cfg.allowed("repro.core.a", "repro.core.b")  # same layer
        assert not cfg.allowed("repro.metric.base", "repro.core.routing")
        assert not cfg.allowed("repro.obs.spans", "repro.eval.report")

    def test_denied_edges_carry_rationale_and_facade(self):
        cfg = LayersConfig.load()
        edge = cfg.denied("repro.core.platform", "repro.sim.engine")
        assert edge is not None and edge.use == "repro.sim"
        assert cfg.denied("repro.sim.transport", "repro.sim.engine") is None
        # the wire codec is held to repro.util: it builds no class from bytes
        for target in ("repro.core.query", "repro.sim.messages", "repro.dht.node"):
            assert cfg.denied("repro.net.codec", target) is not None
        assert cfg.denied("repro.net.codec", "repro.util.arrays") is None
        assert cfg.denied("repro.net.transport", "repro.sim.transport") is None

    def test_bad_contract_rejected(self, tmp_path):
        p = tmp_path / "layers.toml"
        p.write_text('[layers]\na = ["nope"]\n')
        with pytest.raises(ValueError, match="unknown layer"):
            LayersConfig.load(p)

    def test_scheduler_allowlist(self):
        cfg = LayersConfig.load()
        assert cfg.scheduler_ok("repro.sim.transport")
        assert not cfg.scheduler_ok("repro.core.routing")


class TestAsyncSafetyRules:
    def test_asy403_anchors_symbol_and_line(self):
        (finding,) = lint_one(FIXTURES / "asy403_trip.py")
        assert finding.rule == "ASY403"
        assert finding.symbol == "on_commit"
        assert "create_task" in finding.snippet
        assert finding.line == 12

    def test_asy401_reports_blocking_target(self):
        (finding,) = lint_one(FIXTURES / "asy401_trip.py")
        assert "time.sleep" in finding.message
        assert "backoff" in finding.message
        assert finding.line == 8

    def test_asy401_reads_a_registered_leaf_handler_as_loop_context(self):
        # the leaf handlers are plain functions the transport runs on the loop
        (finding,) = lint_one(FIXTURES / "asy401_handler_trip.py")
        assert finding.rule == "ASY401" and finding.symbol == "Node._rpc_ping"
        assert "loop-run def _rpc_ping" in finding.message
        assert lint_one(FIXTURES / "asy401_handler_clean.py") == []

    def test_asy401_reads_data_received_as_loop_context(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(
            "# lint-fixture-module: repro.net.fixture_link\n"
            "import time\n"
            "class Link:\n"
            "    def data_received(self, data):\n"
            "        time.sleep(1)\n"
        )
        assert [f.rule for f in run_lint([p], root=tmp_path).findings] == ["ASY401"]

    def test_asy402_cross_module_call(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "# lint-fixture-module: repro.net.fixture_a\n"
            "async def warmup() -> None: ...\n"
        )
        (tmp_path / "b.py").write_text(
            "# lint-fixture-module: repro.net.fixture_b\n"
            "from repro.net.fixture_a import warmup\n"
            "def kick() -> None:\n"
            "    warmup()\n"
        )
        findings = run_lint([tmp_path], root=tmp_path).findings
        assert [f.rule for f in findings] == ["ASY402"]
        assert findings[0].path.endswith("b.py")

    def test_asy404_module_level_lock_binding(self, tmp_path):
        src = (
            "# lint-fixture-module: repro.net.fixture_modlock\n"
            "import asyncio\nimport threading\n"
            "_LOCK = threading.Lock()\n"
            "async def f() -> None:\n"
            "    with _LOCK:\n"
            "        await asyncio.sleep(0)\n"
        )
        p = tmp_path / "m.py"
        p.write_text(src)
        findings = run_lint([p], root=tmp_path).findings
        assert [f.rule for f in findings] == ["ASY404"]


class TestProtocolRules:
    def test_pro502_skips_partial_runs_without_registrations(self, tmp_path):
        src = (
            "# lint-fixture-module: repro.net.fixture_client\n"
            "async def probe(t, addr):\n"
            "    return await t.rpc(addr, 'ping', {})\n"
        )
        p = tmp_path / "m.py"
        p.write_text(src)
        # no registration site anywhere in the scanned set: under-approximate
        assert run_lint([p], root=tmp_path).findings == []

    def test_pro_rules_hold_on_real_wire_modules(self):
        findings = run_lint([REPO_ROOT / "src/repro/net"], root=REPO_ROOT).findings
        assert [f for f in findings if f.rule.startswith("PRO")] == []


class TestFixes:
    def fix_and_relint(self, fixture: str, tmp_path) -> tuple[str, list[Finding]]:
        p = tmp_path / fixture
        shutil.copy(FIXTURES / fixture, p)
        result = run_lint([p], root=tmp_path)
        assert result.findings and result.findings[0].fixable
        assert apply_fixes(result.findings, tmp_path) == 1
        return p.read_text(), run_lint([p], root=tmp_path).findings

    def test_det102_seed_fix(self, tmp_path):
        text, findings = self.fix_and_relint("det102_trip.py", tmp_path)
        assert "default_rng(0)" in text
        assert findings == []

    def test_arch203_facade_fix(self, tmp_path):
        text, findings = self.fix_and_relint("arch203_trip.py", tmp_path)
        assert "from repro.sim import Simulator" in text
        assert findings == []


class TestRepoGate:
    def test_src_lints_clean(self):
        result = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert result.errors == []
        assert result.findings == [], [f.render() for f in result.findings]

    def test_baselines_lint_clean(self):
        result = run_lint([REPO_ROOT / "benchmarks" / "baselines"], root=REPO_ROOT)
        assert result.errors == []
        assert result.findings == [], [f.render() for f in result.findings]

    def test_rules_read_the_baselines(self, tmp_path):
        # a copy of a baseline module at its package path, with an unseeded
        # generator and a wall-clock read added: both determinism rules fire
        pkg = tmp_path / "benchmarks" / "baselines"
        pkg.mkdir(parents=True)
        src = (REPO_ROOT / "benchmarks" / "baselines" / "sfc.py").read_text()
        src += (
            "\n\ndef _jitter():\n"
            "    import time\n"
            "    return np.random.default_rng().random() + time.time()\n"
        )
        (pkg / "sfc.py").write_text(src)
        findings = run_lint([pkg], root=tmp_path).findings
        assert sorted(f.rule for f in findings) == ["DET101", "DET102"], findings

    def test_module_naming(self):
        assert module_name_for(Path("src/repro/core/platform.py")) == "repro.core.platform"
        assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"
        assert module_name_for(Path("benchmarks/baselines/sfc.py")) == "benchmarks.baselines.sfc"
        assert module_name_for(Path("benchmarks/baselines/__init__.py")) == "benchmarks.baselines"
        assert module_name_for(Path("benchmarks/bench_ablation_sfc.py")) is None
        assert module_name_for(Path("scripts/tool.py")) is None

    def test_relative_import_resolution(self):
        info = load_module(REPO_ROOT / "src" / "repro" / "obs" / "__init__.py", REPO_ROOT)
        imported = {m for _, m in info.import_nodes()}
        assert "repro.obs.registry" in imported
        assert not any(m.startswith("repro.registry") for m in imported)


class TestCli:
    def run_cli(self, *argv: str) -> int:
        from repro.cli import main

        return main(list(argv))

    def test_list_rules(self, capsys):
        assert self.run_cli("lint", "--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_json_output_on_trip_fixture(self, capsys):
        rc = self.run_cli(
            "lint", str(FIXTURES / "det101_trip.py"), "--format", "json")
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and doc["ok"] is False
        (finding,) = doc["findings"]
        assert finding["rule"] == "DET101"
        assert {"path", "line", "col", "message", "symbol", "fixable"} <= finding.keys()

    def test_select_filters_rules(self, capsys):
        rc = self.run_cli(
            "lint", str(FIXTURES / "det101_trip.py"), "--select", "ARCH201")
        assert rc == 0

    def test_src_gate_via_cli(self, capsys):
        assert self.run_cli("lint", str(REPO_ROOT / "src")) == 0
