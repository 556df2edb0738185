"""The benchmark under perfbench/ rebinds package names by attribute (its
tracer's TENSOR_OPS, FUNCTIONS and module classes).  Its own self-tests are
slow and run apart from this suite, so this checks here that every name it
binds still exists and that it restores them all."""

from pathlib import Path

import numpy as np
import pytest

import vit2img.models as models
import vit2img.tensor as T

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads  # noqa: F401  (binds the package at import)

    originals = [T.conv2d, models.build_generator, vars(models.Generator)["__call__"]]
    t = tracer.Tracer()
    try:  # a failed install leaves the names it had already rebound
        t.install()
        assert T.conv2d is not originals[0]
    finally:
        t.uninstall()
    assert [T.conv2d, models.build_generator, vars(models.Generator)["__call__"]] == originals


def test_benchmark_module_groups_name_default_generator_modules(monkeypatch):
    # A group that no parameter path starts with reads 0 in every traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    names = [name for name, _ in models.Generator(models.ModelConfig(), rng=models._NoDraws())
             .named_parameters()]
    for group in tracer.MODULE_GROUPS:
        assert any(name.startswith(group + ".") for name in names), group


def test_benchmark_tracer_times_each_backward_closure(monkeypatch):
    # The tracer swaps each recorded op's closure through ``Tensor._backward``;
    # if backward stopped calling the swapped closure, every traced bwd_ms
    # would read 0.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.mul(x, 2.0)
        assert type(out._backward) is tracer._TimedBackward
        T.backward(T.sum_(out))
    finally:
        t.uninstall()
    assert [s[0] for s in t.spans if s[0].endswith(".bwd")] == ["tensor.sum_.bwd", "tensor.mul.bwd"]
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_benchmark_model_specs_build(monkeypatch):
    # A config rule that refused one of the benchmark's models would break it
    # only in its own self-tests, which run apart from this suite.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for spec in [*(train.model for train in workloads.TRAIN_SPECS.values()), workloads.EVAL_MODEL]:
        models.Generator(models.ModelConfig(**spec), rng=models._NoDraws())


def test_benchmark_report_values(monkeypatch):
    # eval-c closes each pass with this SSIM + FID + IS report; a metrics change
    # that moved or broke it would otherwise show only in the benchmark's runs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from vit2img.data import make_synthetic

    samples = make_synthetic("shapes", 2, workloads.IMAGE_SIZE, 5)
    logits = [np.random.default_rng(i).normal(size=(64, 64, 3)) for i in range(2)]
    assert workloads._report(samples, logits) == pytest.approx(
        (0.07788110263941045, 11.297982286449875, 1.0000349066069365), rel=1e-9)
    exact = [np.eye(3)[s.target] for s in samples]
    assert workloads._report(samples, exact) == pytest.approx((1.0, 0.0, 1.0010196273738396),
                                                              rel=1e-9, abs=1e-9)


def test_benchmark_module_groups_get_forward_and_backward_time(monkeypatch):
    # The tracer times modules by wrapping ``Module.__call__``; had it wrapped
    # nothing, every module-group metric would read 0, in traced runs alone.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    gen = models.Generator(models.ModelConfig())
    x = np.random.default_rng(0).uniform(-1, 1, size=(1, 64, 64, 3))
    t = tracer.Tracer()
    try:
        t.install()
        t.begin_step(1)
        T.backward(T.mean(gen.forward(x, "train")))
        t.end_step()
    finally:
        t.uninstall()
    values, _ = tracer.per_layer(t, reports=0, overhead=0.0)
    for group in tracer.MODULE_GROUPS:
        assert values[f"{group}.fwd_ms"] > 0 and values[f"{group}.bwd_ms"] > 0, group
    paths = {s[1] for s in t.spans if s[0] == "module"}
    assert {"encoder.layers.0.attn", "decoder.stages.0.res.conv1", "head.conv"} <= paths
