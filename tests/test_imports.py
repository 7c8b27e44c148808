"""Import hygiene: each CLI command loads only the scipy parts it uses.

Only compressions on balls of more than DIRECT_SOLVE_MAX elements whose
translation table holds more than TABLE_PRODUCT_MAX entries load
scipy.sparse, and nothing loads scipy.special.

Every check runs in a fresh interpreter, since an earlier test in this
process may already have imported scipy.
"""

import json
import os
import subprocess
import sys

import pytest

import rdmap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rdmap.__file__)))

KESTEN_JSON = json.dumps(
    {"group": {"kind": "free", "rank": 2}, "terms": [{"elem": w, "re": 1.0} for w in "aAbB"]}
)

PROBE = """
import contextlib, io, json, sys
import rdmap, rdmap.cli
argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert rdmap.cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(argv=argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_no_scipy():
    assert scipy_modules_after([]) == set()


def test_check_cn_loads_no_scipy():
    assert scipy_modules_after(["check-cn", "--group", "free:2", "--radius", "2"]) == set()


def test_check_pd_loads_no_scipy():
    argv = ["check-pd", "--group", "free-abelian:2", "--radius", "4"]
    assert scipy_modules_after(argv) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--element-json", KESTEN_JSON, "--radius", "2"],
        ["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3"],
        ["rd-sample", "--group", "free-abelian:1", "--count", "20", "--seed", "1"],
        ["norm", "--element-json", KESTEN_JSON, "--radius", "6"],
        ["rd-sample", "--group", "free:2", "--count", "20", "--seed", "1"],
    ],
    ids=[
        "norm-radius-2", "map-converge-kesten", "rd-sample-z1", "norm-radius-6", "rd-sample-free2"
    ],
)
def test_small_compressions_load_no_scipy(argv):
    # every ball these commands compress holds at most DIRECT_SOLVE_MAX
    # elements, or its table at most TABLE_PRODUCT_MAX entries: Kesten at
    # radius 6 has 4 * 1457, a random free(2) element of at most 6 terms at
    # the default radius 4 at most 6 * 161
    assert scipy_modules_after(argv) == set()


def test_norm_loads_sparse_but_not_special():
    # Kesten at radius 7: 4 * 4373 table entries, above TABLE_PRODUCT_MAX
    loaded = scipy_modules_after(["norm", "--element-json", KESTEN_JSON, "--radius", "7"])
    assert "scipy.sparse" in loaded
    assert "scipy.special" not in loaded
