import importlib.util
import re
import sys
from pathlib import Path

import pytest

from icl_lab import ExperimentConfig

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LEDGER = Path(__file__).with_name("report_digests.txt")


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
    assert len(configs) == 24  # 48 reports, a JSON and a CSV each
    for name, config in configs.items():
        cfg = ExperimentConfig.from_dict(config)
        assert cfg.kind == config["kind"], name
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg, name


def test_reports_match_the_digest_ledger(report_digests, tmp_path):
    # Reports follow numpy's Generator streams, which may change between numpy
    # versions, and classification bits follow the BLAS core and numpy's CPU
    # dispatch, so a mismatch names each of them that differs from the ledger's.
    ledger = LEDGER.read_text()
    recorded = [line for line in ledger.splitlines() if not line.startswith("#")]
    rendered = report_digests.digests(tmp_path / "out")

    def by_name(lines):
        return {name: digest for digest, name in (line.split("  ") for line in lines)}

    then, now = by_name(recorded), by_name(rendered)
    moved = [name for name in {**then, **now} if then.get(name) != now.get(name)]
    taken = dict(re.findall(r"^# (BLAS core|CPU dispatch): (.*)\.$", ledger, re.MULTILINE))
    taken["numpy"] = re.search(r"numpy (\S+)\.$", ledger, re.MULTILINE).group(1)
    platform = "".join(
        f"; ledger {key} {taken.get(key)}, here {value}"
        for key, value in report_digests.platform().items()
        if taken.get(key) != value
    )
    assert rendered == recorded, f"reports moved: {', '.join(moved) or 'order only'}{platform}"
