"""The numpy-absent leg: the program without numpy installed.

numpy only accelerates the flit-level executor; without it the
simulator falls back to the per-flit reference and every report stays
byte-identical.  In-process tests reach that fallback only through
``compiled=False``, so this test starts a fresh interpreter in which
``import numpy`` fails (``sys.modules["numpy"] = None``) before
``repro`` is imported, and compares its canonical replay-demo JSON with
the one this (numpy-present) process renders.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.simulation.compiled import numpy_available
from repro.simulation.replay import run_replay_demo

SRC = str(Path(repro.__file__).resolve().parents[1])

_NO_NUMPY_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from repro.core.application import Application, UseCase
from repro.core.configuration import configure
from repro.core.connection import MB, ChannelSpec
from repro.simulation.backend import FlitLevelBackend, SimRequest
from repro.simulation.compiled import numpy_available
from repro.simulation.replay import run_replay_demo
from repro.simulation.traffic import ConstantBitRate
from repro.topology.builders import mesh
from repro.topology.mapping import Mapping

topo = mesh(2, 2, nis_per_router=1)
spec = ChannelSpec("c0", "ipA", "ipB", 80 * MB, application="app")
config = configure(topo, UseCase("u", (Application("app", (spec,)),)),
                   table_size=8, frequency_hz=500e6,
                   mapping=Mapping({"ipA": "ni0_0_0", "ipB": "ni1_1_0"}))
traffic = {"c0": ConstantBitRate.from_rate(80 * MB, 500e6, config.fmt)}
result = FlitLevelBackend(config).run(SimRequest(n_slots=200,
                                                 traffic=traffic))
_, text, identical = run_replay_demo(n_events=120, n_slots=1200)
print(json.dumps({"numpy_available": numpy_available(),
                  "numpy_module": sys.modules["numpy"] is None,
                  "executor": result.meta["executor"],
                  "identical": identical, "replay": text}))
"""


def test_numpy_absent_falls_back_to_per_flit_with_identical_reports():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["numpy_available"] is False
    assert out["numpy_module"] is True  # nothing re-imported numpy
    assert out["executor"] == "per-flit"
    assert out["identical"] is True
    assert numpy_available()  # this process is the numpy-present leg
    _, text, identical = run_replay_demo(n_events=120, n_slots=1200)
    assert identical
    assert out["replay"] == text
