import importlib.util
import sys
from pathlib import Path

import pytest

from icl_lab import ExperimentConfig

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", TOOLS / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)  # it puts src and perfbench on the path
    finally:
        sys.path[:] = path
    return module


def test_every_report_digests_config_builds(report_digests):
    # Built only, not run: a schema change that breaks one shows here, not at
    # the next byte-identity check.
    configs = report_digests.configs()
    assert len(configs) == 21  # 42 reports, a JSON and a CSV each
    for name, config in configs.items():
        cfg = ExperimentConfig.from_dict(config)
        assert cfg.kind == config["kind"], name
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg, name


def test_report_digests_renders_through_the_cli(report_digests, tmp_path, monkeypatch):
    # Rendered, on the five eta-0 tiny configs: a break in the tool's verify path
    # shows here, not at the next byte-identity check.
    tiny = {k: v for k, v in report_digests.tiny_configs().items() if k.endswith("eta0.0")}
    assert len(tiny) == 5
    monkeypatch.setattr(report_digests, "configs", lambda: tiny)
    reports = report_digests.render(tmp_path / "out")
    assert [p.name for p in reports] == [f"{n}.{ext}" for n in tiny for ext in ("json", "csv")]
    assert all(p.stat().st_size > 0 for p in reports)
