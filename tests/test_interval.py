"""The certified interval core stands apart from the Buchstab tabulation."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

MOVED = {"_DOWN", "_UP", "_down", "_up", "SoundnessError", "Enclosure", "_ratio_bounds"}


def test_certified_layers_load_without_buchstab():
    """interval, regions, quadrature and the sieve harness import in a fresh interpreter without loading buchstab."""
    code = (
        "import sys\n"
        "import sievebound.interval, sievebound.regions, sievebound.quadrature, sievebound.sieve_harness\n"
        "assert 'sievebound.buchstab' not in sys.modules, 'buchstab was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_certified_path_runs_without_numpy():
    """The cli imports without numpy, buchstab or the sieve harness, and a rigorous verify and regions run with numpy unimportable.

    losses.omega_bound_range still resolves, on first access, to
    buchstab's function.
    """
    code = (
        "import sys\n"
        "import sievebound.cli\n"
        "loaded = [m for m in ('numpy', 'sievebound.buchstab', 'sievebound.sieve_harness') if m in sys.modules]\n"
        "assert not loaded, f'loaded with the cli: {loaded}'\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "assert sievebound.cli.main(['verify', '--targets', 'c']) == 0\n"
        "assert sievebound.cli.main(['regions', '--point', '0.3,0.25']) == 0\n"
        "assert 'sievebound.buchstab' not in sys.modules, 'buchstab was imported'\n"
        "del sys.modules['numpy']\n"
        "from sievebound import losses\n"
        "found = losses.omega_bound_range\n"
        "from sievebound import buchstab\n"
        "assert found is buchstab.omega_bound_range\n"
        "assert not hasattr(losses, 'no_such_name')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] loss c" in proc.stdout


def test_buchstab_defines_none_of_the_interval_names():
    """buchstab imports the interval names from interval and defines none of them itself."""
    import sievebound.buchstab as buchstab

    tree = ast.parse(Path(buchstab.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert not defined & MOVED
    assert not MOVED & set(buchstab.__all__)
