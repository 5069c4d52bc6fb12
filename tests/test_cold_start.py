"""Cold start: what a fresh serving process imports.

A process that tags, scores, streams or long-decodes needs numpy and the
HMM and serving layers, not the training stack: no scipy, no DPP prior,
no optimizer, no dataset generator or baseline.  Each case runs in a
fresh interpreter, because the test process has long imported all of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.hmm import HMM, CategoricalEmission
from repro.serving.registry import ModelRegistry

TRAINING_ONLY = ("scipy", "repro.dpp", "repro.optim", "repro.datasets", "repro.baselines")
SEQUENCE = [0, 3, 1, 4, 1, 5, 2]


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(modules, prefixes=TRAINING_ONLY):
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


def test_serving_modules_import_no_training_stack():
    modules = _fresh(
        "import json, sys\n"
        "import repro.serving.cli, repro.serving.http, repro.hmm.engine\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.serving.http" in modules
    assert _loaded(modules) == []


@pytest.fixture(scope="module")
def registry_with_both_kinds(tmp_path_factory):
    """A registry holding a plain ``hmm`` and a fitted ``diversified_hmm``."""
    rng = np.random.default_rng(0)
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    hmm = HMM(
        rng.dirichlet(np.ones(3)),
        rng.dirichlet(np.ones(3), size=3),
        CategoricalEmission(rng.dirichlet(np.ones(6), size=3)),
    )
    dhmm = DiversifiedHMM(
        CategoricalEmission.random_init(3, 6, seed=1),
        DHMMConfig(alpha=1.0, max_em_iter=2),
        seed=1,
    )
    dhmm.fit([rng.integers(0, 6, size=12) for _ in range(8)])
    registry.save("hmm", hmm)
    registry.save("dhmm", dhmm)
    expected = {
        "hmm": hmm.decode(np.array(SEQUENCE)).tolist(),
        "dhmm": dhmm.predict_single(np.array(SEQUENCE)).tolist(),
    }
    return registry.root, expected


def test_loading_and_tagging_artifacts_imports_no_scipy(registry_with_both_kinds):
    root, expected = registry_with_both_kinds
    report = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.serving.registry import ModelRegistry\n"
        "registry = ModelRegistry(sys.argv[1])\n"
        "sequence = np.array(json.loads(sys.argv[2]))\n"
        "tags = {name: registry.load(name).predict([sequence])[0].tolist()\n"
        "        for name in ('hmm', 'dhmm')}\n"
        "print(json.dumps({'tags': tags, 'modules': sorted(sys.modules)}))\n",
        str(root), json.dumps(SEQUENCE),
    )
    assert report["tags"] == expected
    # the diversified_hmm artifact loads its class, and with it the prior
    assert "repro.core.diversified_hmm" in report["modules"]
    assert _loaded(report["modules"], ("scipy",)) == []


def test_every_lazy_export_resolves_and_is_listed():
    report = _fresh(
        "import json\n"
        "import repro, repro.analysis, repro.core, repro.serving\n"
        "report = {}\n"
        "for package in (repro, repro.analysis, repro.core, repro.serving):\n"
        "    listed = set(dir(package))\n"
        "    report[package.__name__] = {\n"
        "        'unlisted': [n for n in package.__all__ if n not in listed],\n"
        "        'unresolved': [n for n in package.__all__\n"
        "                       if getattr(package, n, None) is None],\n"
        "    }\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "report['star'] = sorted(set(repro.__all__) - set(namespace))\n"
        "report['missing'] = hasattr(repro.core, 'no_such_name')\n"
        "from repro.core import transition_prior\n"
        "report['submodule'] = transition_prior.__name__\n"
        "print(json.dumps(report))\n"
    )
    for package in ("repro", "repro.analysis", "repro.core", "repro.serving"):
        assert report[package] == {"unlisted": [], "unresolved": []}, package
    assert report["star"] == []
    assert report["missing"] is False
    assert report["submodule"] == "repro.core.transition_prior"
