"""Dense products run on scipy's BLAS only (see the ``forward`` docstring).

The numpy and scipy wheels each bundle an OpenBLAS with its own thread
pool.  The LU already wakes scipy's; a product through numpy would wake
numpy's as well, whose idle workers spin on the cores the pipeline uses.
"""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nearscat.forward import _gemm

SRC = Path(__file__).resolve().parent.parent / "src"
NUMPY_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _numpy_blas_uses(tree: ast.AST):
    """(line, what) of every construct that would run a product on numpy's BLAS."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "np" and node.attr in NUMPY_PRODUCTS:
            yield node.lineno, f"np.{node.attr}"
        elif isinstance(node, ast.Attribute) and node.attr != "norm" \
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg" \
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "np":
            yield node.lineno, f"np.linalg.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "einsum" \
                and any(kw.arg == "optimize" for kw in node.keywords):
            yield node.lineno, "einsum(optimize=...)"


def test_no_numpy_blas_in_src():
    found = [f"{path.relative_to(SRC)}:{line}: {what}"
             for path in sorted((SRC / "nearscat").glob("*.py"))
             for line, what in _numpy_blas_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, "products on numpy's BLAS:\n" + "\n".join(found)


@pytest.mark.parametrize("snippet,what", [
    ("c = a @ b", "@"),
    ("c @= b", "@"),
    ("c = np.dot(a, b)", "np.dot"),
    ("c = np.matmul(a, b)", "np.matmul"),
    ("c = np.inner(a, b)", "np.inner"),
    ("c = np.vdot(a, b)", "np.vdot"),
    ("c = np.tensordot(a, b, 1)", "np.tensordot"),
    ("x = np.linalg.solve(a, b)", "np.linalg.solve"),
    ("c = np.einsum('ij,jk->ik', a, b, optimize=True)", "einsum(optimize=...)"),
])
def test_guard_catches(snippet, what):
    assert [w for _, w in _numpy_blas_uses(ast.parse(snippet))] == [what]


@pytest.mark.parametrize("snippet", [
    "r = np.linalg.norm(a, axis=1)",
    "np.einsum('ii->i', a)[:] += 1.0",
    "@decorator\ndef f(): pass",
])
def test_guard_allows(snippet):
    assert list(_numpy_blas_uses(ast.parse(snippet))) == []


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# x y^T for the residual phi a^T at M = 256 and 1024, the ring evaluation
# density g^T and the DFT samples basis^T
@pytest.mark.parametrize("x_shape,y_shape", [
    ((12, 256), (256, 256)),
    ((12, 1024), (1024, 1024)),
    ((12, 512), (128, 512)),
    ((12, 128), (11, 128)),
])
def test_gemm_bits_equal_matmul_on_forward_shapes(x_shape, y_shape):
    rng = np.random.default_rng(1)
    x, y = _complex(rng, *x_shape), _complex(rng, *y_shape)
    got = _gemm(x, y.T)
    assert got.flags.c_contiguous
    assert got.tobytes() == (x @ y.T).tobytes()


def test_gemm_matches_matmul_on_last_grid_block():
    # 150^2 points in blocks of 8192 leave 6116; there the two bundled
    # OpenBLAS builds round differently in the last bit
    rng = np.random.default_rng(2)
    values, modes = _complex(rng, 12, 7), _complex(rng, 7, 6116)
    ref = values @ modes
    assert np.abs(_gemm(values, modes) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_gemm_copies_no_operand():
    # the residual's a.T is passed as a view: a copy would add an M x M block
    rng = np.random.default_rng(3)
    phi, a = _complex(rng, 12, 1024), _complex(rng, 1024, 1024)
    tracemalloc.start()
    try:
        _gemm(phi, a.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes


_CHILD = """
import json, os, sys, tempfile
from pathlib import Path
from nearscat.pipeline import ScenarioConfig, run_scenario

def cpu_seconds():
    out = {}
    for task in Path("/proc/self/task").iterdir():
        stat = (task / "stat").read_text().rsplit(")", 1)[1].split()
        out[task.name] = (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")
    return out

cfg = ScenarioConfig(side="exterior", bc="soft", shape="kite",
                     wavenumbers=(3.0, 4.0, 5.0), forward_nodes=512)
before = cpu_seconds()
with tempfile.TemporaryDirectory() as outdir:
    run_scenario(cfg, outdir)
after = cpu_seconds()
main = str(os.getpid())
print(json.dumps({t: s - before.get(t, 0.0) for t, s in after.items() if t != main}))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs per-thread CPU times and two cores")
def test_one_blas_pool_does_the_work():
    # Two threads per pool: a pool in use shows one busy worker, so a second
    # busy thread means both libraries' pools woke up.  The kite at 512
    # nodes on the 150^2 grid makes every product large enough to thread.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    gained = json.loads(done.stdout.splitlines()[-1])
    busy = {t: s for t, s in gained.items() if s > 0.05}
    assert len(busy) <= 1, f"CPU seconds gained by worker threads: {gained}"
