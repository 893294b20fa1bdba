"""The benchmark tracer keys series products by each type's own ``__mul__``.

``perfbench/tracer.py`` wraps methods found in a class's own namespace, so
a series type that inherited its product would vanish from the per-layer
metrics.  This test installs the tracer in a fresh interpreter, multiplies
one pair of each dict- or tuple-backed series type and reads the counters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import padic_fourier

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.install()
from padic_fourier.ainf import AinfElt
from padic_fourier.iwasawa import IwasawaElt
from padic_fourier.witt import PerfSeries
AinfElt(2, 4, 1, 3, {0: 1, 1: 3, 4: 2}) * AinfElt(2, 4, 0, 3, {1: 1, 2: 5})
PerfSeries(3, 1, 2, {1: 1, 3: 2}) * PerfSeries(3, 0, 2, {0: 1, 1: 1})
IwasawaElt(5, 3, 6, [1, 2, 3]) * IwasawaElt(5, 3, 6, [0, 1, 4])
keys = ["ainf.AinfElt.__mul__", "witt.PerfSeries.__mul__", "iwasawa.IwasawaElt.__mul__"]
print(json.dumps({k: [t.calls[k], t.counts[k + ".pairs"]] for k in keys}))
"""


def test_each_series_product_is_traced_under_its_own_key():
    src = str(Path(padic_fourier.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(seen) == {
        "ainf.AinfElt.__mul__", "witt.PerfSeries.__mul__", "iwasawa.IwasawaElt.__mul__"
    }
    for key, (calls, pairs) in seen.items():
        assert calls == 1, key
        assert pairs > 0, key
