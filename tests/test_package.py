"""The package namespace: lazily loaded names, and a per-call path that
never imports numpy."""

import json
import os
import subprocess
import sys
import types

import pytest

import gausszig

#: run in a fresh interpreter: per-call use first, then the numpy submodules
FRESH_PROCESS = """
import json, sys
import gausszig
gausszig.build_ziggurat_tables(128)
gausszig.build_ziggurat_tables(256)
for sampler_id in gausszig.SAMPLER_IDS:
    for source_id in gausszig.SOURCE_IDS:
        sampler = gausszig.make_sampler(sampler_id)
        source = gausszig.make_source(source_id, 7)
        for _ in range(500):
            sampler.next_gaussian(source)
        gausszig.gaussian_affine(source, sampler, 1.0, 2.0)
numpy_loaded = "numpy" in sys.modules
submodules = {name: type(getattr(gausszig, name)).__name__
              for name in ("engine", "stats", "bench", "cli")}
print(json.dumps({"numpy_loaded": numpy_loaded, "submodules": submodules}))
"""


@pytest.fixture(scope="module")
def fresh_process():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gausszig.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_per_call_draws_leave_numpy_unloaded(fresh_process):
    assert fresh_process["numpy_loaded"] is False


def test_numpy_submodules_resolve_after_bare_import(fresh_process):
    assert fresh_process["submodules"] == dict.fromkeys(
        ("engine", "stats", "bench", "cli"), "module")


@pytest.mark.parametrize("name", gausszig.__all__)
def test_every_public_name_resolves(name):
    value = getattr(gausszig, name)
    assert value is not None
    assert not isinstance(value, types.ModuleType)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gausszig import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gausszig.__all__)


def test_dir_lists_every_public_name():
    assert set(gausszig.__all__) <= set(dir(gausszig))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gausszig.no_such_name
    with pytest.raises(ImportError):
        from gausszig import no_such_name  # noqa: F401
