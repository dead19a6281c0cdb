"""The names the benchmark's tracer looks up must exist in the package.

perfbench/launch.py wraps every module in MODULES and every class in
CLASSES by getattr; a rename would crash every traced run.  The launcher is
imported from its file and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def load_launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_modules_and_classes_exist():
    launch = load_launch()
    assert set(launch.CLASSES) <= set(launch.MODULES)
    for name in launch.MODULES:
        module = importlib.import_module(f"orbitprimes.{name}")
        for cls_name in launch.CLASSES.get(name, ()):
            assert isinstance(getattr(module, cls_name), type), f"{name}.{cls_name}"
