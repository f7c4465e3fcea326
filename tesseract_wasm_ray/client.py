"""OCRClient — the async API tier over a dedicated Ray actor.

Mirrors the reference's two-tier API (README.md:48-53): the sync
``OCREngine`` (engine.py) for in-process use, and ``OCRClient``
(/root/reference/src/ocr-client.ts:53-120) which proxies a worker-held
engine so the caller's thread never blocks.  Here the "worker" is a Ray
actor holding a warm engine + model (the reference spawns a Web Worker
and RPCs via comlink; calls on one client serialize, which Ray actors
guarantee per-actor).

``destroy()`` kills the actor, mirroring worker termination
(/root/reference/src/ocr-client.ts:117-120).  For corpus-scale work use
the map-task pipeline (pipelines/extract.py) — this class is the
single-document/interactive tier.
"""

from __future__ import annotations

import numpy as np
import ray


@ray.remote(num_cpus=1)
class _EngineActor:
    def __init__(self, variables: dict[str, str] | None = None):
        from .engine import OCREngine

        self.engine = OCREngine(variables)

    def load_model(self, blob: bytes) -> None:
        self.engine.load_model(blob)

    def load_image(self, img: np.ndarray) -> None:
        self.engine.load_image(img)

    def clear_image(self) -> None:
        self.engine.clear_image()

    def get_bounding_boxes(self, unit: str) -> list[dict]:
        return self.engine.get_bounding_boxes(unit)

    def get_text_boxes(self, unit: str) -> list[dict]:
        return [
            {
                "rect": {
                    "left": it.rect.left,
                    "top": it.rect.top,
                    "right": it.rect.right,
                    "bottom": it.rect.bottom,
                },
                "flags": it.flags,
                "confidence": it.confidence,
                "text": it.text,
            }
            for it in self.engine.get_text_boxes(unit)
        ]

    def get_text(self) -> str:
        return self.engine.get_text()

    def get_hocr(self) -> str:
        return self.engine.get_hocr()

    def get_orientation(self) -> dict:
        return self.engine.get_orientation()

    def get_variable(self, name: str) -> str:
        return self.engine.get_variable(name)

    def set_variable(self, name: str, value: str) -> None:
        self.engine.set_variable(name, value)


class OCRClient:
    """Async façade: every method returns a ``ray.ObjectRef`` — call
    ``ray.get`` to await, or pass refs along (the comlink-Promise
    analogue).  One underlying actor per client; calls serialize in
    submission order, matching the reference's per-client ordering."""

    def __init__(self, variables: dict[str, str] | None = None):
        self._actor = _EngineActor.remote(variables)

    def load_model(self, model_blob: bytes) -> ray.ObjectRef:
        return self._actor.load_model.remote(model_blob)

    def load_image(self, img: np.ndarray) -> ray.ObjectRef:
        return self._actor.load_image.remote(img)

    def clear_image(self) -> ray.ObjectRef:
        return self._actor.clear_image.remote()

    def get_bounding_boxes(self, unit: str = "word") -> ray.ObjectRef:
        return self._actor.get_bounding_boxes.remote(unit)

    def get_text_boxes(self, unit: str = "word") -> ray.ObjectRef:
        return self._actor.get_text_boxes.remote(unit)

    def get_text(self) -> ray.ObjectRef:
        return self._actor.get_text.remote()

    def get_hocr(self) -> ray.ObjectRef:
        return self._actor.get_hocr.remote()

    def get_orientation(self) -> ray.ObjectRef:
        return self._actor.get_orientation.remote()

    def get_variable(self, name: str) -> ray.ObjectRef:
        return self._actor.get_variable.remote(name)

    def set_variable(self, name: str, value: str) -> ray.ObjectRef:
        return self._actor.set_variable.remote(name, value)

    def destroy(self) -> None:
        ray.kill(self._actor)
        self._actor = None
