"""Finite-difference verification of every differentiable operation."""

import re

import numpy as np
import pytest

from mffcn.gradcheck import (
    DEFAULT_SEEDS,
    FD_EPS,
    OP_TABLE,
    REL_TOL,
    _central_diff,
    check_gradients,
    check_op,
    eps_ladder,
    run_model_check,
    run_op_suite,
)
from mffcn.model import FusionStrategy, init_params
from mffcn.tensor import NonFiniteError, Tensor, TensorError, _accumulate, active_tape, record

import composed


class TestFiniteDifferenceOracle:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert check_gradients(lambda args: (args[0] * args[0]).sum(), [x]) < 1e-9

    def test_linear_is_exact(self):
        x = Tensor(np.array([3.0, -1.0, 0.5]))
        w = np.array([2.0, 5.0, -4.0])
        assert check_gradients(lambda args: (args[0] * Tensor(w)).sum(), [x]) < 1e-9

    def test_float32_inputs_are_probed_in_float64(self):
        x = Tensor(np.array([0.1, -2.5, 3.0], dtype=np.float32))
        seen = []

        def fn(args):
            seen.append(args[0].dtype)
            return (args[0] * args[0]).sum()

        assert check_gradients(fn, [x]) < 1e-9
        assert set(seen) == {np.dtype(np.float64)}

    def test_nondeterminism_detected(self):
        calls = []

        def flaky(args):
            calls.append(None)
            return (args[0] * Tensor(np.full(args[0].dims, float(len(calls))))).sum()

        with pytest.raises(TensorError, match="deterministic"):
            check_gradients(flaky, [Tensor(np.array([1.0]))])
        assert len(calls) == 3  # taped, then at the base point and on fresh copies

    def test_check_gradients_flags_wrong_backward(self):
        # A loss whose true gradient is 2x; pretend it is x by scaling inside.
        x = Tensor(np.array([1.0, 2.0]))

        def fn(args):
            return (args[0] * Tensor(args[0].data)).sum()  # analytic grad sees only one factor

        with pytest.raises(TensorError, match="mismatch"):
            check_gradients(fn, [x])


# Worst relative error of each op check per seed (DEFAULT_SEEDS order), recorded
# while the ops still took inputs without a batch axis: the checks now draw the
# same values with a leading axis of 1 and must reproduce these. The norm_leaky
# and attention rows were recorded when those ops became one taped op each, the
# lstm row when it took features-first sequences and the maxpool2d row when it
# took tiling windows only. The rows of the primitives the fused ops replaced
# were recorded from OP_TABLE and are now checked from composed.OP_ROWS. The
# batch_norm_eval and norm_leaky_eval rows, and channel_attention's last
# value, were recorded again when eval batch norm became one scale and shift
# and channel attention began to squeeze the pooled maps.
OP_WORST_ERRORS = {
    "add": (5.651228894718173e-12, 2.6147442547318357e-12, 1.2352880223496885e-13,
            1.8853065444147678e-13, 5.956855464094574e-11),
    "sub": (1.846410457724852e-12, 2.1418521909226685e-11, 1.7011486583211241e-13,
            5.164353376786245e-13, 1.3453920681472046e-10),
    "mul": (9.01665990413397e-11, 1.2698224523890296e-11, 3.225600181817643e-13,
            7.135020715665487e-13, 1.2367824647471636e-10),
    "scalar_mix": (6.826153333715906e-12, 1.3407433188033254e-11, 5.505457617401947e-13,
                   1.1779063213725891e-12, 4.753872210221189e-11),
    "sum": (3.3395508580713556e-13, 1.1013412404281553e-13, 1.1013412404281553e-13,
            8.881784197001244e-16, 1.2221335055058787e-12),
    "mean": (1.629581393307868e-11, 9.677441676621607e-12, 2.2023003494710152e-13,
             8.316483199841973e-14, 8.846709388079749e-10),
    "reshape": (9.978555711462304e-13, 9.401888827388405e-12, 2.0244278665552308e-13,
                5.164353376786245e-13, 1.9912772520365013e-12),
    "pick": (1.696117949062583e-12, 2.6147442547318357e-12, 1.3396316295301015e-14,
             1.723034147009812e-14, 7.682304843723034e-12),
    "stack": (2.4092747429260458e-11, 4.3634277151526325e-12, 1.0197005918966115e-12,
              1.6783661103998595e-12, 7.065924345805418e-12),
    "sigmoid": (8.552964258534823e-08, 8.332925411856211e-08, 9.301237541440852e-08,
                8.045023866965198e-08, 1.0459026167570584e-07),
    "tanh": (6.29145832284156e-07, 4.1063101493752327e-07, 6.368163819238959e-07,
             2.882544636536724e-07, 6.465611321551099e-07),
    "leaky_relu": (1.097238012699704e-11, 2.6147442547318357e-12, 7.679161623466908e-13,
                   2.6225231991499316e-13, 6.988206515191149e-11),
    "relu": (8.688997432830616e-13, 2.6147442547318357e-12, 5.301732813614847e-14,
             1.723034147009812e-14, 4.665198887005575e-12),
    "conv2d": (1.1506904136472817e-10, 2.777669139128616e-10, 2.9498126415290443e-12,
               2.747190183244134e-12, 2.1195303108534022e-10),
    "conv_transpose2d": (3.537180248840963e-11, 7.978388054097023e-11, 3.243546455292149e-11,
                         2.0798133239408e-12, 2.2587160613172117e-11),
    "maxpool2d": (7.776881497553115e-13, 9.401888827388405e-12, 1.6885533709128825e-14,
                  8.132839963447039e-15, 1.675700971618585e-11),
    "batch_norm_train": (9.121747235708044e-08, 5.240913969789519e-08, 1.0893312032130395e-06,
                         2.373239883513073e-06, 8.747993543671902e-08),
    "batch_norm_eval": (8.457787615743751e-12, 4.994092491995678e-11, 1.6493494667241965e-11,
                        1.659831765338652e-11, 1.7655231496669028e-11),
    "softmax_pair": (1.4147996272945245e-07, 8.289598337107152e-08, 8.333244313493145e-08,
                     1.447601942444888e-07, 8.161287798276183e-08),
    "fully_connected": (2.4616154291025565e-12, 1.2698224523890296e-11, 8.728220654283618e-13,
                        1.5576047430863134e-12, 1.506302049353674e-11),
    "global_avg_pool": (1.3426661617284715e-11, 2.614791194704813e-12, 1.7011486583211241e-13,
                        1.8853065444147678e-13, 2.526738137988117e-12),
    "concat_channels": (9.024253348931077e-12, 4.3634277151526325e-12, 3.076184749155341e-11,
                        1.6783661103998595e-12, 6.535302928793831e-12),
    "scale_channels": (1.0845661578332026e-11, 3.049879977246707e-11, 1.0470573251552226e-12,
                       4.0588936500735143e-13, 2.288798947672761e-12),
    "lstm": (9.030071246087985e-06, 4.126100817567302e-06, 1.0863559931299727e-05,
             7.936103739720283e-06, 4.145650735288157e-06),
    "norm_leaky_train": (2.667866933586807e-06, 2.3901858144109795e-05, 5.745243074563717e-06,
                         1.9209015782508587e-06, 8.498903406284962e-07),
    "norm_leaky_eval": (9.013179232711238e-11, 7.784575120023139e-12, 1.0316247593904076e-11,
                        2.886011829314684e-11, 1.0756364391003411e-11),
    "channel_attention": (2.4197391433867143e-06, 1.3824006468889324e-07, 2.921599517145935e-06,
                          2.864541485108821e-06, 2.2511832169626065e-07),
    "spectral_attention": (8.228616191420575e-08, 3.7033208147629966e-08, 2.9252865119667307e-07,
                           8.370694074655692e-07, 4.2486849701110104e-06),
}


@pytest.mark.parametrize("name", sorted(OP_TABLE))
@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_op_gradients(name, seed):
    worst = check_op(name, seed)
    assert worst < REL_TOL
    np.testing.assert_allclose(worst, OP_WORST_ERRORS[name][DEFAULT_SEEDS.index(seed)], rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", sorted(composed.OP_ROWS))
@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_composed_primitive_gradients(name, seed):
    worst = composed.check_row(name, seed)
    assert worst < REL_TOL
    np.testing.assert_allclose(worst, OP_WORST_ERRORS[name][DEFAULT_SEEDS.index(seed)], rtol=1e-9, atol=0)


def test_every_pin_has_one_row():
    assert sorted([*OP_TABLE, *composed.OP_ROWS]) == sorted(OP_WORST_ERRORS)
    assert len(OP_TABLE) == 14


def _cube(x, scale=1.0):
    """x ** 3 as one taped op whose backward is scale times the exact 3 x^2."""
    def backward(g):
        _accumulate(x, scale * 3.0 * g * x.data ** 2)

    return record(Tensor(x.data ** 3), (x,), backward)


class TestOpSuiteTolerance:
    # At x = 0.01 a central difference of x^3 reads 3 x^2 + h^2: its relative
    # truncation error h^2 / (3 x^2 + h^2) is 3.3e-3 at FD_EPS, 3.3e-5 at FD_EPS / 10.
    X = 0.01

    def _rel_errors(self, scale):
        x = Tensor(np.array([self.X]), requires_grad=True)
        analytic = scale * 3.0 * self.X ** 2
        numeric = [_central_diff(lambda args: _cube(args[0]), [x], 0, (0,), h) for h in eps_ladder(FD_EPS)]
        return [abs(analytic - n) / max(abs(analytic), abs(n)) for n in numeric]

    def test_planted_truncation_miss_passes_down_the_ladder(self):
        first, second, _ = self._rel_errors(1.0)
        truncation = [h * h / (3.0 * self.X ** 2 + h * h) for h in eps_ladder(FD_EPS)[:2]]
        assert [first, second] == pytest.approx(truncation, rel=1e-6)
        assert first > REL_TOL > second
        assert check_gradients(lambda args: _cube(args[0]), [Tensor(np.array([self.X]))]) == second

    def test_planted_wrong_backward_fails_at_every_step(self):
        assert all(rel > REL_TOL for rel in self._rel_errors(1.1))

    def test_truncation_miss_passes_down_the_ladder(self):
        # at FD_EPS the lstm check at seed 39 reads 6.12e-4, truncation of the
        # central difference; its missing coordinates pass at a smaller step
        assert check_op("lstm", 39) < REL_TOL
        assert all(r.ok for r in run_op_suite(seeds=(37, 38, 39, 40, 41)))

    def test_tolerance_reaches_every_op_check(self):
        lstm = {r.name: r for r in run_op_suite(seeds=(39,), tol=1e-3)}["lstm"]
        assert lstm.ok and REL_TOL < lstm.worst_err < 1e-3

    def test_failing_rows_report_the_failing_error(self):
        results = run_op_suite(seeds=(3, 4), tol=1e-12)
        failed = [r for r in results if not r.ok]
        assert failed
        for r in failed:
            assert r.worst_err > 1e-12, r
            seed, err = re.match(r"seed (\d): .* error (\S+) >", r.detail).groups()
            assert seed in "34" and float(err) == pytest.approx(r.worst_err, rel=1e-3)


def _leaky_relu_with_scaled_backward(x):
    """composed.leaky_relu, except that its backward is 1.1 times too large."""
    from mffcn.tensor import _accumulate, record

    def backward(g):
        _accumulate(x, 1.1 * g * np.where(x.data > 0, 1.0, 0.2))

    return record(Tensor(np.maximum(x.data, 0.2 * x.data)), (x,), backward)


class TestPlantedWrongBackward:
    @pytest.fixture()
    def planted(self, monkeypatch):
        """The composed norm_leaky with the wrong rectifier, in ops and in the model."""
        from mffcn import model, ops
        monkeypatch.setattr(composed, "leaky_relu", _leaky_relu_with_scaled_backward)
        monkeypatch.setattr(ops, "norm_leaky", composed.norm_leaky)
        monkeypatch.setattr(model, "norm_leaky", composed.norm_leaky)

    def test_op_row_fails_and_names_its_seed(self, planted):
        rows = {r.name: r for r in run_op_suite(seeds=(2, 3))}
        failed = ["norm_leaky_train", "norm_leaky_eval"]
        assert [name for name, r in rows.items() if not r.ok] == failed
        for name in failed:
            assert rows[name].detail.startswith("seed 2: gradient mismatch")
            assert rows[name].worst_err > 0.05  # 0.1 / 1.1 where the slope is wrong

    def test_model_check_fails_and_names_a_parameter(self, planted):
        result = run_model_check(seed=0, strategy=FusionStrategy.LATE)
        names = [n for n, _ in init_params(0, FusionStrategy.LATE, 16).named]
        assert not result.ok and result.worst_err > 0.05
        culprits = re.findall(r"input \d+ \(([\w.]+)\) coord", result.detail)
        assert culprits and set(culprits) <= set(names)


# (name, worst_err.hex(), ok, detail) of run_model_check per (wiring, seed),
# recorded with every probe running a whole forward (last with the memo
# bypassed, when eval batch norm became one scale and shift and channel
# attention began to squeeze the pooled maps): probes that rerun only the
# nodes downstream of the perturbed tensor must reproduce them.
MODEL_CHECKS = {
    ("multilayer", 0): ("model[multilayer,d=16,seed=0]", "0x1.27f1e8ce4126cp-15", True,
                        "286 coordinates; worst video_enc.1.conv.bias[3] rel 3.528e-05 at eps 0.0001"),
    ("multilayer", 1): ("model[multilayer,d=16,seed=1]", "0x1.0c2b6b1135dacp-15", True,
                        "286 coordinates; worst audio_enc.2.conv.bias[2] rel 3.197e-05 at eps 0.0001"),
    ("multilayer", 2): ("model[multilayer,d=16,seed=2]", "0x1.7c3f6b811b0a3p-21", True,
                        "286 coordinates; worst bottleneck.lstm.2.input.bias[39] rel 7.083e-07 at eps 0.0001"),
    ("multilayer", 3): ("model[multilayer,d=16,seed=3]", "0x1.716201337d31dp-14", True,
                        "286 coordinates; worst decoder.8.bn.beta[1] rel 8.807e-05 at eps 0.0001"),
    ("multilayer", 4): ("model[multilayer,d=16,seed=4]", "0x1.68432fd3fcce9p-21", True,
                        "286 coordinates; worst bottleneck.lstm.2.forget.wh[3, 21] rel 6.710e-07 at eps 0.0001"),
    ("early", 0): ("model[early,d=16,seed=0]", "0x1.ba46d5fde9180p-22", True,
                   "122 coordinates; worst bottleneck.lstm.1.cell.wh[39, 58] rel 4.119e-07 at eps 0.0001"),
    ("late", 0): ("model[late,d=16,seed=0]", "0x1.83039bccee300p-22", True,
                  "158 coordinates; worst audio_enc.3.conv.bias[3] rel 3.604e-07 at eps 0.0001"),
    ("mid-bottleneck", 0): ("model[mid-bottleneck,d=16,seed=0]", "0x1.d8c9f009cfe17p-15", True,
                            "148 coordinates; worst decoder.6.deconv.bias[6] rel 5.636e-05 at eps 0.0001"),
    ("mid-decoder", 0): ("model[mid-decoder,d=16,seed=0]", "0x1.5dbed49ba671dp-19", True,
                         "266 coordinates; worst video_enc.2.bn.gamma[1] rel 2.606e-06 at eps 0.0001"),
}


@pytest.fixture(scope="module")
def model_checks():
    return {(wiring, seed): run_model_check(seed=seed, strategy=FusionStrategy(wiring))
            for wiring, seed in MODEL_CHECKS}


@pytest.fixture(scope="module")
def model_check(model_checks):
    return model_checks[("multilayer", 0)]


@pytest.mark.parametrize("case", list(MODEL_CHECKS), ids=lambda c: f"{c[0]}-seed{c[1]}")
def test_model_check_pinned(model_checks, case):
    got = model_checks[case]
    assert (got.name, got.worst_err.hex(), got.ok, got.detail) == MODEL_CHECKS[case]


class TestWholeModel:
    def test_full_graph_gradients(self, model_check):
        assert model_check.ok, model_check.detail
        assert model_check.worst_err < REL_TOL

    def test_detail_names_worst_coordinate(self, model_check):
        names = [n for n, _ in init_params(0, FusionStrategy.MULTILAYER, 16).named]
        match = re.fullmatch(r"(\d+) coordinates; worst ([\w.]+)\[[\d, ]*\] "
                             r"rel (\S+) at eps (\S+)", model_check.detail)
        assert match, model_check.detail
        assert int(match.group(1)) == len(names)
        assert match.group(2) in names
        assert float(match.group(3)) == pytest.approx(model_check.worst_err, rel=1e-3)
        assert match.group(4) in [f"{h:.3g}" for h in eps_ladder(1e-4)]

    def test_a_forward_that_moves_a_parameter_in_place_fails(self, monkeypatch):
        """A forward that shifts a bias while it is taped leaves the taped model
        away from the point init_params draws: the determinism check's second
        model, drawn afresh, catches it."""
        from mffcn import model
        forward = model.mffcn_forward

        def shifting(y, v, params, mode="train", **kwargs):
            if active_tape() is not None:
                params.audio_enc[0].conv.bias.data += 0.5
            return forward(y, v, params, mode=mode, **kwargs)

        monkeypatch.setattr(model, "mffcn_forward", shifting)
        result = run_model_check(seed=0)
        assert not result.ok and result.detail.startswith("loss not deterministic: ")


class TestProbeInPlace:
    @pytest.mark.parametrize("raise_at", [4, 5])  # the +eps and the -eps probe
    def test_raising_loss_restores_the_coordinate(self, raise_at):
        x = Tensor(np.array([0.1, -2.5, 3.0]))
        seen = []

        def fn(args):
            seen.append(args[0])
            if len(seen) == raise_at:
                raise RuntimeError("loss failed mid-probe")
            return (args[0] * args[0]).sum()

        with pytest.raises(RuntimeError, match="mid-probe"):
            check_gradients(fn, [x])
        assert seen[-1] is seen[0] and seen[1] is seen[0]  # the taped copy is the one probed
        assert seen[2] is not seen[0]  # the determinism check's fresh copy
        assert seen[-1].data.tobytes() == x.data.tobytes()

    def test_probes_reuse_the_taped_copy(self):
        x = Tensor(np.array([0.5, -1.5]))
        seen = []

        def fn(args):
            seen.append(args[0])
            return (args[0] * args[0]).sum()

        check_gradients(fn, [x])
        assert len(seen) == 3 + 2 * x.size  # each coordinate passes at its first step
        assert all(t is seen[0] for t in seen[:2] + seen[3:])
        assert seen[0].data.tobytes() == x.data.tobytes()

    def test_nonfinite_probe_is_rejected_and_restored(self):
        x = Tensor(np.array([-1.5e308]))
        seen = []

        def fn(args):
            seen.append(float(args[0].data[0]))
            return args[0].sum()

        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            _central_diff(fn, [x], 0, (0,), 1e308)  # +eps is finite, -eps overflows
        assert seen == [-1.5e308 + 1e308]
        assert x.data.tobytes() == np.array([-1.5e308]).tobytes()


@pytest.fixture(scope="module")
def recorded_check():
    """run_model_check(seed=0) with every model forward watched.

    Each forward over an already seen model must be at that model's first
    point or differ from it in exactly one coordinate. Each such probe hands
    on the memo the base-point forward filled, and its output, which alone
    decides the loss, is compared bit for bit with a whole forward over fresh
    copies.
    """
    from mffcn import model
    from mffcn.ops import BatchNormState

    original = model.mffcn_forward
    first_seen = {}     # id(params) -> (params, its data flattened at first sight)
    probed = []         # (tensor name, flat index) perturbed in each repeated forward
    fresh_equal = {}    # group -> [probe output == fresh-copy output, bitwise]
    memos = {}          # id(params) -> the memos its forwards were handed

    def flat(params):
        return np.concatenate([t.data.ravel() for _, t in params.named])

    def fresh(params):
        it = iter([Tensor(t.data.copy()) for _, t in params.named])
        return model._build(
            params.strategy, params.width_divisor, lambda name, shape, kind: next(it),
            lambda name, channels: BatchNormState.initial(channels, dtype=np.float64))

    def watched(y, v, params, mode="train", **kwargs):
        out = original(y, v, params, mode=mode, **kwargs)
        memos.setdefault(id(params), []).append(kwargs.get("memo"))
        if id(params) not in first_seen:
            first_seen[id(params)] = (params, flat(params))
            return out
        changed = np.flatnonzero(flat(params) != first_seen[id(params)][1])
        if len(changed) == 0:  # the base point again
            return out
        assert len(changed) == 1, changed
        ends = np.cumsum([t.size for _, t in params.named])
        pos = int(np.searchsorted(ends, changed[0], side="right"))
        name = params.named[pos][0]
        probed.append((name, int(changed[0])))
        ref = original(y, v, fresh(params), mode=mode)
        fresh_equal.setdefault(name.split(".")[0], []).append(
            out.data.tobytes() == ref.data.tobytes())
        return out

    model.mffcn_forward = watched
    try:
        result = run_model_check(seed=0)
    finally:
        model.mffcn_forward = original
    return result, first_seen, probed, fresh_equal, memos


class TestModelCheckInPlace:
    def test_result_matches_the_unwatched_check(self, recorded_check, model_check):
        assert recorded_check[0] == model_check

    def test_probed_losses_equal_fresh_copy_forwards(self, recorded_check):
        _, _, probed, fresh_equal, _ = recorded_check
        names = [n for n, _ in init_params(0, FusionStrategy.MULTILAYER, 16).named]
        assert {name for name, _ in probed} == set(names)
        assert set(fresh_equal) == {n.split(".")[0] for n in names}
        assert sum(len(v) for v in fresh_equal.values()) == len(probed)
        assert all(all(v) for v in fresh_equal.values()), \
            {group: v.count(False) for group, v in fresh_equal.items()}

    def test_probes_read_the_memo_of_the_base_forward(self, recorded_check):
        _, first_seen, probed, _, memos = recorded_check
        (probe_model, _), = [seen for seen in first_seen.values() if len(memos[id(seen[0])]) > 1]
        handed = memos[id(probe_model)]
        # the taped forward, the base-point forward that fills the memo, the probes
        assert len(handed) == len(probed) + 2
        assert handed[0] is None
        assert handed[1] is not None and all(m is handed[1] for m in handed[1:])

    def test_one_model_is_taped_and_probed(self, recorded_check):
        # one taped forward and two for the determinism check, the second on
        # a second model drawn the same way, then one forward per probe
        _, first_seen, probed, _, memos = recorded_check
        assert len(first_seen) == 2
        assert sum(len(handed) for handed in memos.values()) == 3 + len(probed)

    def test_base_tensors_left_bit_identical(self, recorded_check):
        _, first_seen, _, _, _ = recorded_check
        for params, snapshot in first_seen.values():
            assert np.concatenate([t.data.ravel() for _, t in params.named]).tobytes() \
                == snapshot.tobytes()
