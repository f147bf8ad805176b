"""Traced memory bounds that fail if a whole extra copy of a model comes back.

tracemalloc counts every numpy buffer, so each bound is read against the
bytes of the model it handles. The readings quoted were taken before each
path held one copy, and after: at 6014841 for the model check and the
checkpoint write, at 24f1582 for check_gradients.
"""

import tracemalloc

import numpy as np

from mffcn.gradcheck import DEFAULT_SEEDS, REL_TOL, check_gradients, run_model_check
from mffcn.model import FusionStrategy, init_params, save_model
from mffcn.tensor import Tape, Tensor
from mffcn.train import TrainConfig, synth_dataset, train


def _traced_peak(fn):
    """fn()'s result and the peak of the bytes it held allocated at once."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_model_check_holds_one_model():
    """The referee tapes and probes the one set of float64 tensors it draws.

    2.32 MB of parameters at d=16: the traced peak read 15.1 MB (6.5x) with
    separate taped and probe copies, and 7.97 MB (3.43x) over one set.
    """
    params = init_params(DEFAULT_SEEDS[0], FusionStrategy.MULTILAYER, 16, dtype=np.float64)
    param_bytes = sum(t.data.nbytes for _, t in params.named)
    result, peak = _traced_peak(lambda: run_model_check(seed=DEFAULT_SEEDS[0]))
    assert result.ok, result.detail
    assert peak <= 4 * param_bytes, (peak, param_bytes)


def test_op_check_holds_one_copy_of_its_inputs():
    """check_gradients tapes and probes one float64 copy of its inputs.

    Two 8192-element float64 inputs are 128 KiB under (a * b).sum(): the
    traced peak read 7.04x their bytes with a separate probe copy and a
    whole-gradient central-difference pass, and 5.04x over one copy.
    """
    rng = np.random.default_rng(0)
    inputs = [Tensor(rng.standard_normal(8192)) for _ in range(2)]
    input_bytes = sum(t.data.nbytes for t in inputs)

    def product(args):
        return (args[0] * args[1]).sum()

    worst, peak = _traced_peak(lambda: check_gradients(product, inputs))
    assert worst < REL_TOL
    assert peak <= 6 * input_bytes, (peak, input_bytes)


def test_checkpoint_write_holds_no_encoded_copy(tmp_path):
    """save_model streams each record's payload straight from its array.

    A d=4 model is 18.3 MB, its largest record 1.05 MB: the traced peak read
    36.9 MB (2.0x the model) when the whole file was encoded before writing,
    and 0.30 MB streamed.
    """
    params = init_params(0, FusionStrategy.MULTILAYER, 4)
    largest = max(t.data.nbytes for _, t in params.named)
    _, peak = _traced_peak(lambda: save_model(str(tmp_path / "d4.mffc"), params))
    assert peak <= largest + (1 << 20), (peak, largest)


def test_adam_update_and_scan_allocate_no_per_parameter_array(monkeypatch):
    """What a d=8 train step allocates after its backward: Adam and its finite scan.

    The layout holds 1,150,201 parameters, so a bool mask over them is 1.15
    MB. The traced peak from the end of the backward to the end of the step
    read 1.15 MB when the step scanned the whole buffer after Adam, and
    0.59 MB with each block scanned inside the update.
    """
    replay = Tape.backward

    def traced_after(tape, loss):
        replay(tape, loss)
        tracemalloc.start()

    monkeypatch.setattr(Tape, "backward", traced_after)
    cfg = TrainConfig(steps=1, seed=0, width_divisor=8, batch_size=1)
    try:
        result = train(cfg, synth_dataset(0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = result.adam.flat.data.size
    assert peak < n, (peak, n)
