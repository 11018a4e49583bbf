import os
import subprocess
import sys

import promil
from promil import bagdata, cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_exported_name_resolves():
    missing = [name for name in promil.__all__ if not hasattr(promil, name)]
    assert missing == []
    assert len(set(promil.__all__)) == len(promil.__all__)


def test_cli_imports_only_numpy_and_the_standard_library():
    # in a fresh process, so that what other tests imported does not count;
    # the top-level modules that the import added are printed
    code = ("import sys; before = set(sys.modules); import promil.cli; "
            "print(' '.join({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(out.split())
    assert "scipy" not in loaded
    assert {"numpy", "promil"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "promil"} == set()


def test_readme_names_the_current_file_schemas():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for schema in (bagdata.DATASET_SCHEMA, cli.MODEL_SCHEMA, cli.CONFIG_SCHEMA):
        assert f"`{schema}`" in readme, schema
