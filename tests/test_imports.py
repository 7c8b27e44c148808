"""Import hygiene: each CLI command loads only the scipy parts it uses.

Only compressions on balls of more than DIRECT_SOLVE_MAX elements whose
translation table holds more than TABLE_PRODUCT_MAX entries load
scipy.sparse, and nothing loads scipy.special.  Where `import numpy` leaves
numpy.fft unloaded (numpy 2), only a ball of more than DIRECT_SOLVE_MAX
elements that covers a cyclic group loads it.

Every check runs in a fresh interpreter, since an earlier test in this
process may already have imported scipy.

The last check is import hygiene of the other direction: every module-level
function, class and constant of rdmap, and every defaulted parameter of its
functions, has a user outside the unit tests.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rdmap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rdmap.__file__)))

KESTEN_JSON = json.dumps(
    {"group": {"kind": "free", "rank": 2}, "terms": [{"elem": w, "re": 1.0} for w in "aAbB"]}
)

PROBE = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
import rdmap, rdmap.cli
argv = {argv!r}
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert rdmap.cli.main(argv) == 0
loaded = set(sys.modules) - before
lazy = [m for m in loaded if m.split(".")[0] == "scipy" or m.startswith("numpy.fft")]
print(json.dumps(sorted(lazy)))
"""


def lazy_modules_after(argv) -> set:
    """The scipy and numpy.fft modules that `import numpy` leaves unloaded and
    `import rdmap` plus `rdmap.cli.main(argv)` load, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(argv=argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_no_scipy():
    assert lazy_modules_after([]) == set()


def test_check_cn_loads_no_scipy():
    assert lazy_modules_after(["check-cn", "--group", "free:2", "--radius", "2"]) == set()


def test_check_pd_loads_no_scipy():
    argv = ["check-pd", "--group", "free-abelian:2", "--radius", "4"]
    assert lazy_modules_after(argv) == set()


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
    assert lazy_modules_after(argv) == set()


def test_norm_loads_sparse_but_not_special():
    # Kesten at radius 7: 4 * 4373 table entries, above TABLE_PRODUCT_MAX
    loaded = lazy_modules_after(["norm", "--element-json", KESTEN_JSON, "--radius", "7"])
    assert "scipy.sparse" in loaded
    assert "scipy.special" not in loaded


def test_covering_cyclic_ball_loads_fft_but_no_scipy():
    # the covering ball of Z/301 holds more than DIRECT_SOLVE_MAX elements,
    # and its table 3 * 301 entries; numpy 1 loads numpy.fft on import
    cyclic = json.dumps(
        {
            "group": {"kind": "cyclic", "order": 301},
            "terms": [{"elem": 1, "re": 1.0}, {"elem": 300, "re": 1.0}, {"elem": 7, "im": 0.5}],
        }
    )
    loaded = lazy_modules_after(["norm", "--element-json", cyclic, "--radius", "150"])
    assert ("numpy.fft" in loaded) == (int(np.__version__.split(".")[0]) >= 2)
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def _defaulted_parameters(tree) -> set:
    """(def name, parameter, call position or None) of each defaulted parameter
    in tree; a method's call positions skip its self or cls."""
    methods = {
        id(item)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            shift = 1 if id(node) in methods else 0
            for index in range(len(positional) - len(args.defaults), len(positional)):
                out.add((node.name, positional[index].arg, index - shift))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.add((node.name, arg.arg, None))
    return out


def unused_definitions(root) -> list:
    """What of root/src/rdmap no code in root's src/, bench/, demos/ or
    tests/test_acceptance.py uses.

    A module-level function, class or constant (dunders exempt) is used when
    that code reads its name, as a variable, an attribute or an import; a
    definition or an assignment is not a reference to itself.  A defaulted
    parameter of any def, listed as "name(parameter)", is used when some call
    to that name passes it, by keyword or by position; ``*args`` passes every
    later position and ``**kwargs`` every keyword.
    """
    defined, parameters = set(), set()
    for path in glob.glob(os.path.join(root, "src", "rdmap", "*.py")):
        with open(path) as source:
            tree = ast.parse(source.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        parameters |= _defaulted_parameters(tree)
    users = [os.path.join(root, "tests", "test_acceptance.py")]
    for folder in ("src", "bench", "demos"):
        assert os.path.isdir(os.path.join(root, folder))
        users += glob.glob(os.path.join(root, folder, "**", "*.py"), recursive=True)
    used, calls = set(), []
    for path in users:
        with open(path) as source:
            for node in ast.walk(ast.parse(source.read())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    count = sys.maxsize if starred else len(node.args)
                    calls.append((name, count, {k.arg for k in node.keywords}))
    unused = sorted(name for name in defined - used if not name.startswith("__"))
    for name, parameter, index in sorted(parameters, key=str):
        if not any(
            called == name
            and ((index is not None and count > index) or {None, parameter} & keywords)
            for called, count, keywords in calls
        ):
            unused.append(f"{name}({parameter})")
    return unused


def test_every_module_level_definition_has_a_user_outside_the_unit_tests():
    # no public API that only tests use: a helper that only a unit test
    # calls belongs in that test's module
    assert unused_definitions(os.path.dirname(SRC)) == []
