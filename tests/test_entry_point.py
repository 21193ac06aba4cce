"""The ``hyperwalk`` command sets one BLAS thread before numpy loads, unless
the caller chose a thread count; importing the package changes nothing.

Each case runs in a fresh interpreter, where an import hook records the
thread variables at the moment numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

PROBE = """
import json, os, sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
seen = {}


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({var: os.environ.get(var) for var in THREAD_VARS})
        return None


sys.meta_path.insert(0, Watch())
if sys.argv[1] == "command":
    import hyperwalk_entry
    sys.argv = ["hyperwalk", "gen", "c4", "--out", sys.argv[2]]
    code = hyperwalk_entry.main()
else:
    import hyperwalk
    code = None
after = {var: os.environ.get(var) for var in THREAD_VARS}
print(json.dumps({"code": code, "at_numpy_import": seen, "after": after}))
"""


def probe(tmp_path, mode, **env):
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    clean["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(tmp_path / "c4.json")],
        env={**clean, **env}, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "preset, expected",
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
        ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
    ],
)
def test_command_sets_threads_before_numpy_loads(tmp_path, preset, expected):
    out = probe(tmp_path, "command", **preset)
    assert out["code"] == 0 and (tmp_path / "c4.json").exists()
    assert out["at_numpy_import"] == expected
    assert out["after"] == expected


def test_library_import_changes_no_thread_variable(tmp_path):
    out = probe(tmp_path, "library")
    unset = {var: None for var in THREAD_VARS}
    assert out["at_numpy_import"] == unset and out["after"] == unset
