"""Every functools.lru_cache in src/mffcn that returns arrays hands out read-only arrays.

A cached array is the same object for every later caller, so one in-place
write by any caller would corrupt every later result. CACHED_ARRAYS lists
each such cache with the arguments the program calls it with; EXEMPT lists
the caches that return no arrays. An AST scan of src/mffcn fails when a
cache is in neither list, so a new cache has to be added to one of them.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from mffcn.dsp import SEG_FRAMES, WIN_LEN
from mffcn.metrics import STOI_FRAME

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"

CACHED_ARRAYS = {
    "dsp.hann_window": [(WIN_LEN,), (STOI_FRAME,)],
    "dsp.mel_filterbank": [()],
    # STOI resamples 16 kHz to 10 kHz: up 5, down 8
    "dsp._polyphase_taps": [(5, 8)],
    "metrics._third_octave_bands": [()],
    "metrics._proxy_weights": [()],
    # a one-second clip gives five segments
    "metrics._istft_envelope": [(5 * SEG_FRAMES,)],
}

EXEMPT = {
    "ops._grid": "caches _Grid conv geometry: integers, slices and lists of them, no array",
}


def _is_lru_cache(node):
    """lru_cache, functools.lru_cache, or either called with its arguments."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def _caches():
    """module.name of every decorated def and `name = lru_cache(...)(f)` in src/mffcn."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(map(_is_lru_cache, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and _is_lru_cache(node.value.func)):
                found.update(f"{path.stem}.{t.id}" for t in node.targets if isinstance(t, ast.Name))
    return found


def test_every_cache_is_listed():
    found = _caches()
    assert found == set(CACHED_ARRAYS) | set(EXEMPT)


@pytest.mark.parametrize("name, args", [(name, args) for name, calls in CACHED_ARRAYS.items()
                                        for args in calls])
def test_cached_arrays_reject_writes(name, args):
    module, attr = name.split(".")
    result = getattr(importlib.import_module(f"mffcn.{module}"), attr)(*args)
    arrays = result if isinstance(result, tuple) else (result,)
    assert arrays and all(isinstance(a, np.ndarray) for a in arrays)
    for i, a in enumerate(arrays):
        assert not a.flags.writeable, f"{name}{args} array {i} is writable"
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
