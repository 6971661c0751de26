"""opnav runs on numpy alone; scipy is only the tests' reference.

One child interpreter imports the command line and lists what it loaded.
Another blocks every scipy import (``sys.modules["scipy"] = None`` makes
``import scipy`` raise), runs the README commands at the default config
(synth-sky, build-catalog, render, process) and must write the same bytes
as the same commands run here, in a process that has scipy loaded.
"""

import hashlib
import json
import os
import subprocess
import sys

import scipy.ndimage  # noqa: F401  (this process runs the flow with scipy loaded)
import scipy.special  # noqa: F401

import opnav

SRC = os.path.dirname(os.path.dirname(opnav.__file__))

# The README commands in the fresh directory ``path``; returns the SHA-256
# of every output.
README_FLOW = """
import contextlib, hashlib, io, json, os, sys
from opnav.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()

def flow(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        run("synth-sky", "--catalog-out", "catalog.csv", "--ephemeris-out", "planets.csv")
        run("build-catalog", "--in", "catalog.csv", "--out", "onboard.npz", "--mlim", "5.5", "--gamma-max-deg", "35")
        with open("scene.cfg", "w") as fh:
            fh.write("catalog=catalog.csv\\nephemeris=planets.csv\\nalpha_rad=0.7\\ndelta_rad=0.21\\n"
                     "phi_rad=1.01\\nsc_x_km=0\\nsc_y_km=0\\nsc_z_km=0\\nseed=5\\n")
        run("render", "--scene", "scene.cfg", "--out", "frame.pgm", "--truth", "frame_truth.csv")
        open("pipeline.cfg", "w").close()  # the default config
        stdout = run("process", "--image", "frame.pgm", "--db", "onboard.npz", "--config", "pipeline.cfg", "--catalog", "catalog.csv",
                     "--ephemeris", "planets.csv", "--sc-pos", "0,0,0", "--sigma-r", "1e5")
        names = ("catalog.csv", "planets.csv", "onboard.npz", "frame.pgm", "frame_truth.csv")
        digests = {name: hashlib.sha256(open(name, "rb").read()).hexdigest() for name in names}
    finally:
        os.chdir(cwd)
    digests["process stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests
"""


def _child(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, os.environ.get("PYTHONPATH", ""))))
    r = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    code = "import json, sys\nimport opnav.cli\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    assert _child(code) == []


def test_readme_flow_without_scipy_equals_this_process(tmp_path):
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    code = "import json, sys\nsys.modules['scipy'] = None\n" + README_FLOW + "print(json.dumps(flow(sys.argv[1])))"
    blocked = _child(code, str(tmp_path / "child"))
    namespace = {}
    exec(README_FLOW, namespace)
    assert "scipy.special" in sys.modules and "scipy.ndimage" in sys.modules
    assert blocked == namespace["flow"](tmp_path / "here")
    assert len(blocked) == 6
