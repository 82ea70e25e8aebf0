import pytest

from tracing import LAYER_UNITS, Span, Tracer, layer_metrics, self_times


def tree():
    # root [0, 10] runs train [1, 5], whose encoding [5.5, 6.5] is replayed
    # after it, and evaluate [6, 9] with nested rank [7, 8].
    return [
        Span(0, "experiment.run", 0.0, 10.0, None),
        Span(1, "trainer.train", 1.0, 5.0, 0, {"steps": 8, "final_loss": 2.5}),
        Span(2, "codec.encode_batch", 5.5, 6.5, 1,
             {"bits_in": 30, "cells_in": 100}),
        Span(3, "experiment.evaluate_model", 6.0, 9.0, 0),
        Span(4, "codec.rank_batch", 7.0, 8.0, 3),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(tree())
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[1] == pytest.approx(4.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_times_sum_to_root_duration_when_children_nest():
    spans = [s for s in tree() if s.id != 2]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_layer_metrics_from_hand_built_tree():
    m = layer_metrics(tree())
    assert set(m) | {"experiment.parallel_speedup", "bench.tracing_overhead_s"} \
        == set(LAYER_UNITS)
    assert m["trainer.train_s"] == pytest.approx(3.0)
    assert m["trainer.steps"] == 8
    assert m["trainer.final_loss"] == 2.5
    assert m["codec.encode_batch_s"] == pytest.approx(1.0)
    assert m["codec.bit_fill_in"] == pytest.approx(0.3)
    assert m["codec.bit_fill_out"] == 0.0
    assert m["experiment.evaluate_model_s"] == pytest.approx(3.0)
    assert m["experiment.eval_metric_s"] == pytest.approx(2.0)
    assert m["codec.rank_batch_s"] == pytest.approx(1.0)
    assert m["cbe.applied_ratio"] == 0.0


def test_applied_ratio_and_batch_medians():
    spans = [
        Span(0, "cbe.threshold_and_order", 0.0, 1.0, None, {"pairs": 10}),
        Span(1, "cbe.rebuild_hash_matrix", 1.0, 2.0, None, {"skipped": 2}),
        Span(2, "trainer.batch.gradients", 0.0, 0.002, None),
        Span(3, "trainer.batch.gradients", 0.0, 0.004, None),
        Span(4, "trainer.batch.gradients", 0.0, 0.100, None),
        Span(5, "trainer.batch.backward_and_step", 0.0, 0.010, None),
    ]
    m = layer_metrics(spans)
    assert m["cbe.applied_ratio"] == pytest.approx(0.8)
    assert m["trainer.gradients_ms"] == pytest.approx(4.0)
    assert m["trainer.optimizer_ms"] == pytest.approx(6.0)


def test_tracer_nests_by_default_and_accepts_an_explicit_parent():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b"):
            pass
    with tracer.span("c", a, rows=3):
        pass
    a_, b_, c_ = tracer.spans
    assert (a_.parent, b_.parent, c_.parent) == (None, a.id, a.id)
    assert c_.attrs == {"rows": 3}
    assert a_.start <= b_.start <= b_.end <= a_.end
