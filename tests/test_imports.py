"""Start-up cost and dependencies: importing the package and its CLI loads
neither scipy nor networkx, the routing cost's shortest paths load no scipy,
and no command needs scipy or networkx."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dynsel

SRC = str(Path(dynsel.__file__).resolve().parent.parent)


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])  # after what `code` printed


def heavy_modules(names):
    return sorted(m for m in names if m.split(".")[0] in ("scipy", "networkx"))


def test_cli_import_loads_no_scipy_or_networkx():
    loaded = run_python(
        "import json, sys\n"
        "import dynsel, dynsel.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "dynsel.cli" in loaded
    assert heavy_modules(loaded) == []


def test_routing_cost_loads_no_scipy():
    result = run_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from dynsel.core import substream\n"
        "from dynsel.problems import InfluenceInstance, RoutingCost, gen_er_graph\n"
        "g = gen_er_graph(12, 0.4, substream(5, 'route'))\n"
        "c = RoutingCost(InfluenceInstance(g, routing_graph=g))\n"
        "values = []\n"
        "for sel in ([], [3], [0, 11], [1, 4, 7, 9], list(range(12))):\n"
        "    bits = np.zeros(12, dtype=np.uint8)\n"
        "    bits[sel] = 1\n"
        "    values.append(c(bits))\n"
        "heavy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(json.dumps({'values': values, 'loaded': heavy}))\n")
    assert result["loaded"] == []
    # the values RoutingCost gave when its shortest paths came from scipy
    assert result["values"] == [0.0, 0.1, 0.9457514910307736, 2.4416941306733326,
                                5.735804787583736]


def test_commands_run_without_networkx(tmp_path):
    """`sys.modules[name] = None` makes every import of `name` fail, so
    generate, run and analyze, the routing cost included, need neither
    scipy nor networkx."""
    result = run_python(
        "import json, sys\n"
        "sys.modules['networkx'] = sys.modules['scipy'] = None\n"
        "from dynsel.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [\n"
        "    main(['generate', 'ba', '--n', '20', '--out', out + '/ba.edges']),\n"
        "    main(['generate', 'config', '--experiment', 'influence-routing',\n"
        "          '--n', '20', '--count', '2', '--tau', '10', '--run-seeds', '1',\n"
        "          '--out', out + '/exp.ini']),\n"
        "    main(['run', '--config', out + '/exp.ini']),\n"
        "    main(['analyze', '--results', out + '/results',\n"
        "          '--baseline', 'pomc:200'])]\n"
        "print(json.dumps(codes))\n")
    assert result == [0, 0, 0, 0]
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert manifest["failed"] == [] and len(manifest["files"]) == 4
