"""Ray Data context tuning for this engine's pipelines.

Measured on the extraction pipeline (16 CPUs, 20k-doc corpus):
``op_resource_reservation_enabled`` throttled the streaming executor to
~40% CPU utilization — the DAG has ~12 small operators and the
per-operator reservation slices leave most of the budget idle (23.4s ->
10.7s wall with it disabled).  Memory safety still holds: batches are
small (text spans, bounded-size page rasters) and every wide stage is
bucketed, so disabling the reservation does not risk unbounded buffering
here.  Call once per session before running pipelines; safe to call
multiple times.
"""

from __future__ import annotations


def apply_data_context_tuning() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
    _dequeue_short_last_bundle()


def _dequeue_short_last_bundle() -> None:
    """Ray 2.49's ``MapOperator.all_inputs_done`` submits the bundler's
    last bundle (fewer rows than ``batch_size``) without dequeuing its
    input bundles from the operator's metrics, as ``_add_input_inner``
    does for every full bundle.  The metrics' in-queue then holds those
    inputs until the cyclic garbage collector reaches the finished
    operator, and their blocks outlive the pass in the object store: a
    warm session's store grew by the short bundle's bytes on every
    ``run_extract`` (docs/RAY_NOTES.md, round 8).  This adds the
    missing dequeue; it patches only the Ray minor release it was
    measured on."""
    import ray
    from ray.data._internal.execution.operators.map_operator import MapOperator

    if not ray.__version__.startswith("2.49.") or getattr(
        MapOperator.all_inputs_done, "dequeues_short_last_bundle", False
    ):
        return

    def all_inputs_done(self) -> None:
        self._block_ref_bundler.done_adding_bundles()
        if self._block_ref_bundler.has_bundle():
            inputs, bundled_input = self._block_ref_bundler.get_next_bundle()
            for bundle in inputs:
                self._metrics.on_input_dequeued(bundle)
            self._add_bundled_input(bundled_input)
        super(MapOperator, self).all_inputs_done()

    all_inputs_done.dequeues_short_last_bundle = True
    MapOperator.all_inputs_done = all_inputs_done
