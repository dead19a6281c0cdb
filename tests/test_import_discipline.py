"""A command imports only the modules it runs.

Each case runs `orbitprimes.cli.main` in a fresh interpreter and reads
`sys.modules` afterwards: these are checks on module sets, not on times.
The package's public names, which resolve lazily, are checked in-process.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import contextlib, io, json, sys
import orbitprimes.cli
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = orbitprimes.cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

COMMANDS = {
    "orbit": ("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n", "4"),
    "zsigmondy": ("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "6"),
    "zsigmondy-qt": ("zsigmondy", "--map", "x^2+t", "--alpha", "1", "--field", "qt",
                     "--max-n", "3"),
    "height": ("height", "--point", "3/4"),
    "canonical-height": ("canonical-height", "--map", "x^2+1", "--alpha", "1"),
    "classify": ("classify", "--map", "x^2+1", "--alpha", "1"),
    "map-analyze": ("map-analyze", "--map", "x^2-2"),
    "prop-old": ("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1",
                 "--max-n", "3"),
    "abc": ("abc", "--a", "1", "--b", "8"),
    "roth-scan": ("roth-scan", "--F", "x^3-2", "--height-bound", "5"),
    "roth-scan-qt": ("roth-scan", "--F", "x^3+t", "--field", "qt", "--max-degree", "1",
                     "--coeff-bound", "1"),
    "mason": ("mason", "--a", "t^2", "--b", "1"),
    "galois-tower": ("galois-tower", "--a", "3", "--max-n", "3"),
}


def loaded(*argv):
    """(package modules without the prefix, every module name) after argv ran."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] in (None, 0), proc.stderr
    modules = set(result["modules"])
    return {m.partition(".")[2] for m in modules if m.startswith("orbitprimes.")}, modules


@pytest.mark.parametrize("argv", [(), ("--help",)], ids=["import", "help"])
def test_import_and_help_load_only_cli_and_errors(argv):
    package, modules = loaded(*argv)
    assert package == {"cli", "errors"}
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_dataclasses(argv):
    _, modules = loaded(*argv)
    assert "dataclasses" not in modules


def test_map_analyze_loads_no_orbit_scan_module():
    package, _ = loaded(*COMMANDS["map-analyze"])
    assert "maps" in package
    assert package.isdisjoint({"zsigmondy", "heights", "galois", "abclab", "cache", "ffplaces"})


def test_zsigmondy_over_q_loads_the_cache_only_when_asked(tmp_path):
    package, modules = loaded(*COMMANDS["zsigmondy"])
    assert "zsigmondy" in package
    assert package.isdisjoint({"cache", "ffplaces", "abclab", "galois"})
    assert "hashlib" not in modules
    package, modules = loaded(*COMMANDS["zsigmondy"], "--cache", str(tmp_path / "c.jsonl"))
    assert "cache" in package and "hashlib" in modules


def test_galois_tower_loads_no_height_abc_function_field_or_cache_module():
    package, _ = loaded(*COMMANDS["galois-tower"])
    assert {"galois", "zsigmondy", "intplaces"} <= package
    assert package.isdisjoint({"heights", "abclab", "ffplaces", "cache"})


@pytest.mark.parametrize("command", ["abc", "roth-scan"])
def test_q_abc_and_roth_scan_load_no_function_field_module(command):
    package, _ = loaded(*COMMANDS[command])
    assert "abclab" in package
    assert "ffplaces" not in package


@pytest.mark.parametrize("command", ["roth-scan", "roth-scan-qt", "mason"])
def test_roth_scan_and_mason_load_no_orbit_code(command):
    package, _ = loaded(*COMMANDS[command])
    assert package.isdisjoint({"maps", "heights", "zsigmondy"})


def test_every_public_name_resolves_in_its_module():
    import orbitprimes

    for name in orbitprimes.__all__:
        module = importlib.import_module(f"orbitprimes.{orbitprimes._MODULE_OF[name]}")
        assert name in vars(module), name
        assert getattr(orbitprimes, name) is vars(module)[name], name
    with pytest.raises(AttributeError):
        orbitprimes.not_a_public_name
