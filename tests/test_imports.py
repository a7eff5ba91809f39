"""What ``import convexineq`` exports, and which scipy subpackages load, and when.

``import convexineq`` loads none of scipy.optimize, scipy.sparse and
scipy.integrate; the paths that need them import them on first use.  Each
check runs in a fresh interpreter, since the test process has long loaded
them.  Source checks keep the modules free of imports they never use, of
random-stream purpose codes no call site keys, and of error arithmetic
outside ``Estimate``.
"""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import convexineq
from convexineq import Ball, Cube, transport
from convexineq._rng import Purpose
from convexineq.transport import DiscreteMeasure

SRC = str(Path(convexineq.__file__).resolve().parents[1])
PACKAGE = Path(convexineq.__file__).resolve().parent
DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.integrate")


def _fresh(body: str):
    """Run ``body`` in a new interpreter and return the JSON it prints last."""
    code = f"import json, sys\nsys.path.insert(0, {SRC!r})\n{body}"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


_LOADED = f"[m for m in {DEFERRED!r} if m in sys.modules]"


def test_export_list_matches_the_package_names():
    # sorted, a duplicate or an unbound name in __all__ breaks the equality
    public = [k for k, v in vars(convexineq).items() if k[0] != "_" and not isinstance(v, types.ModuleType)]
    assert sorted(convexineq.__all__) == sorted(public)


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_modules_use_every_name_they_import():
    # __init__ imports to re-export
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items() if ident not in used]
    assert unused == []


def test_every_purpose_code_keys_some_call_site():
    referenced = {
        node.attr
        for name, tree in _trees().items()
        if name != "_rng.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "Purpose"
    }
    assert sorted(set(Purpose.__members__) - referenced) == []


def test_only_estimate_propagates_errors():
    # a derived stderr comes from Estimate's operations, not a hand-written hypot
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            ident = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if ident == "combined_stderr" or (ident == "hypot" and name != "estimate.py"):
                found.append(f"{name}:{getattr(node, 'lineno', '?')} {ident}")
    assert found == []


def test_import_loads_no_deferred_scipy_subpackage():
    loaded = _fresh(
        "import convexineq, convexineq.cli\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    assert loaded == []


def test_quadrature_checks_load_no_deferred_scipy_subpackage():
    loaded = _fresh(
        "import numpy as np\n"
        "from convexineq import Cube, corpora, functional\n"
        "functional.tlsi_verify(Cube(1.0, 2), corpora.trig_function(2, 3), 2.0, 24)\n"
        "xs = np.linspace(0.0, 1.0, 65)\n"
        "functional.brenier_chain_check_1d(2.0 + np.sin(3.0 * xs), (0.0, 1.0), p=1.5)\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    assert loaded == []


def test_hpolytope_loads_scipy_optimize():
    loaded = _fresh(
        "from convexineq import HPolytope\n"
        "HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    assert {"scipy.optimize", "scipy.sparse"} <= set(loaded)


def test_exact_ot_loads_scipy_optimize_and_sparse():
    loaded = _fresh(
        "from convexineq import transport\n"
        "mu = transport.DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])\n"
        "nu = transport.DiscreteMeasure.uniform([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])\n"
        "transport.exact_ot(mu, nu, 2)\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    assert {"scipy.optimize", "scipy.sparse"} <= set(loaded)


def test_exact_ot_on_the_line_loads_neither_scipy_optimize_nor_sparse():
    # non-uniform weights and unequal sizes: the monotone coupling, numpy only
    got = _fresh(
        "from convexineq import transport\n"
        "mu = transport.DiscreteMeasure([[0.0], [1.0], [3.0]], [0.5, 0.25, 0.25])\n"
        "nu = transport.DiscreteMeasure([[0.5], [2.0]], [0.75, 0.25])\n"
        "plan = transport.exact_ot(mu, nu, 2)\n"
        f"print(json.dumps([plan.cost, plan.solver, {_LOADED}]))\n"
    )
    # 0 -> 0.5 carries 0.5, 1 -> 0.5 and 3 -> 2 carry 0.25 each
    assert got == [0.5 * 0.25 + 0.25 * 0.25 + 0.25 * 1.0, "exact", []]


def test_first_exact_ot_calls_on_the_pool_match_a_warm_process():
    # four repetitions on a pool of four threads that switch often: several
    # reach the first import of the assignment solver at once
    got = _fresh(
        "from convexineq import Ball, Cube, transport\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "transport.usable_cpus = lambda: 4\n"
        "sys.setswitchinterval(1e-6)\n"
        "est = transport.wasserstein_empirical(Ball(1.0, 2), Cube(1.0, 2), p=1, m=64, seed=11, reps=4)\n"
        "print(json.dumps([est.value.hex(), est.stderr.hex(), est.count, est.seed]))\n"
    )
    warm = transport.wasserstein_empirical(Ball(1.0, 2), Cube(1.0, 2), p=1, m=64, seed=11, reps=4)
    assert got == [warm.value.hex(), warm.stderr.hex(), warm.count, warm.seed]


def test_first_exact_ot_call_solving_the_lp_matches_a_warm_call():
    # unequal sizes in the plane: the first call goes through the
    # transportation LP
    g = np.random.default_rng(5)
    xs, ys = g.normal(size=(7, 2)), g.normal(size=(9, 2))
    got = _fresh(
        "from convexineq import transport\n"
        f"xs, ys = {xs.tolist()!r}, {ys.tolist()!r}\n"
        "plan = transport.exact_ot(transport.DiscreteMeasure.uniform(xs), "
        "transport.DiscreteMeasure.uniform(ys), 2)\n"
        "print(json.dumps([plan.cost.hex(), plan.plan.tobytes().hex()]))\n"
    )
    warm = transport.exact_ot(DiscreteMeasure.uniform(xs), DiscreteMeasure.uniform(ys), 2)
    assert got == [warm.cost.hex(), warm.plan.tobytes().hex()]
