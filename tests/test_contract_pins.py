"""Cross-commit pins: canonical report digests and CLI usage errors.

The in-process run-twice checks only prove a report is stable within
one interpreter.  These tests pin the sha256 of each demo's canonical
JSON at small sizes, so a change that alters a report by a single byte
fails here, and pin the exit code and first stderr line of every CLI
usage error.  A deliberate change to a report's contents must update
the digest in the same commit and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.__main__ import main

#: sha256 of the canonical JSON of each demo at the sizes below.
GOLDEN = {
    "serve": "8ab5193541a232904e41846a17f0d4ad"
             "3d45138c79ecafecb328a47a94504327",
    "fairness": "4fc414f58b0e86117b6c6b762850ae85"
                "4ef6eb4762471b953ffbfdf4cb78f514",
    "replay": "41aa67eead3b023ce277af85bdb650a2"
              "8b62c464c823d795e25814752ce75790",
    "faults": "8fd473a22db1015c84f21a07e0499f11"
              "3945ccfa9b97800f96a46b1a1d6c61ab",
    "design": "7184e542d9d0354e63b9c2e127abf42a"
              "ee0a51ac6be8adf4b4d1cfd945e4739b",
    "campaign": "e75766683c1681c1a332d82873bb0d2e"
                "64068b1aebe06c74b8f4d18dccd1107a",
}


def _canonical_json(name: str) -> str:
    if name == "serve":
        from repro.service import run_demo
        report, _ = run_demo(n_events=200)
        return report.to_json()
    if name == "fairness":
        from repro.service import run_fairness_demo
        return run_fairness_demo(n_events=300)[1]
    if name == "replay":
        from repro.simulation.replay import run_replay_demo
        return run_replay_demo(n_events=120, n_slots=1200)[1]
    if name == "faults":
        from repro.faults.demo import run_faults_demo
        return run_faults_demo(n_events=120, n_slots=1200)[1]
    if name == "design":
        from repro.design import run_design_demo
        report, _, _ = run_design_demo(workers=1)
        return report.to_json()
    from repro.campaign import CampaignRunner, demo_campaign
    return CampaignRunner(demo_campaign(), workers=1).run().to_json()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canonical_report_digest_is_pinned(name):
    digest = hashlib.sha256(_canonical_json(name).encode()).hexdigest()
    assert digest == GOLDEN[name]


_PRESETS = ("churn_campaign, demo_campaign, design_campaign, "
            "fairness_campaign, fault_campaign, micro_campaign, "
            "replay_campaign, synthetic_campaign")


#: Each usage error: the argv and the first line it prints to stderr.
_USAGE_ERRORS = [
    (["serve"],
     "serve: only the built-in --demo trace is runnable from the CLI; "
     "drive custom workloads with repro.service in Python"),
    (["replay"],
     "replay: only the built-in --demo trace is runnable from the CLI; "
     "drive custom timelines with repro.simulation.verify_timeline in "
     "Python"),
    (["faults"],
     "faults: only the built-in --demo flow is runnable from the CLI; "
     "drive custom schedules with repro.faults in Python (FaultSpec, "
     "FaultSchedule, Allocation.rebuild_excluding)"),
    (["design"],
     "design: only the built-in --demo exploration is runnable from the "
     "CLI; build custom problems with repro.design in Python "
     "(DesignExplorer, DesignSpace, workload_from_churn)"),
    (["monitor"],
     "monitor: only the built-in --demo flow is runnable from the CLI; "
     "build custom watchdogs with repro.telemetry.monitor in Python "
     "(MonitorSpec, conformance_from_result, timeline_conformance, "
     "FabricRollup)"),
    (["campaign"],
     "campaign: pick --demo or --preset <name>; build custom grids with "
     "repro.campaign in Python"),
    (["campaign", "--demo", "--preset", "x"],
     "campaign: --demo and --preset are mutually exclusive"),
    (["campaign", "--demo", "--stream"],
     "campaign: --stream needs --workdir (the shard journals are the "
     "record store the report streams from)"),
    (["campaign", "--preset", "nope"],
     f"campaign: unknown campaign preset 'nope'; available: {_PRESETS}"),
]


@pytest.mark.parametrize(
    "argv, first_line", _USAGE_ERRORS,
    ids=[" ".join(argv) for argv, _ in _USAGE_ERRORS])
def test_cli_usage_error(argv, first_line, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0] == first_line
    assert captured.out == ""
