"""The benchmark's per-layer tracer (`bench/layers.py`) patches prover
functions by module and attribute name, from outside the source tree.  A
refactor that renames or removes one of them breaks `--trace 1` without
failing anything else, so this checks each name still resolves."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    missing = []
    for layer, modname, attr, _ in load_layers().LAYERS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}: {modname}.{attr}")
    assert not missing


def test_unfold_binds_pattern_mgu_by_name():
    # The tracer patches every module binding of a traced function; the
    # benchmark's own tests read the one in `unfold`.
    from nonterm import powers, unfold

    assert unfold.pattern_mgu is powers.pattern_mgu


def test_one_unifier_for_plain_and_power_terms():
    # A forked copy of the unifier would escape whatever patches
    # `unfold.unify` (the deadline test, a tracer layer).
    from nonterm import powers, terms, unfold

    assert unfold.unify is powers.unify is terms.unify
