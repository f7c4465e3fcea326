"""OCREngine — synchronous per-document API tier with lazy memoization.

Mirrors the reference's low-level sync engine
(/root/reference/src/ocr-engine.ts:91-341) and its state machine:

- ``load_model`` once per engine (``_modelLoaded`` latch,
  /root/reference/src/ocr-engine.ts:94,155-163);
- ``load_image`` frees the previous image first to cap peak memory
  (/root/reference/src/ocr-engine.ts:187-189) and resets the lazy result
  latches (/root/reference/src/lib.cpp:185-186);
- layout and recognition each run at most once per image
  (``layout_analysis_done_`` / ``ocr_done_``,
  /root/reference/src/lib.cpp:198-201,327-331,338-339) — any of
  get_bounding_boxes / get_text_boxes / get_text / get_hocr reuses them;
- layout-only queries work without a model
  (/root/reference/src/lib.cpp:173-175, test/ocr-engine-test.js:174-182);
- error paths: ops before image / before model raise
  (/root/reference/src/ocr-engine.ts:130-131,147-149,159-161,205-207).

The Ray-scale tier (pipelines/extract.py) runs this same kernel in map
tasks on reused Ray workers, playing the role of the async ``OCRClient``
(/root/reference/src/ocr-client.ts:53).
"""

from __future__ import annotations

import numpy as np

from . import MODEL_VERSION, __version__
from .functions.binarize import binarize
from .functions.hocr import render_hocr
from .functions.layout import Rect, analyze_layout
from .functions.orientation import derotate, detect_orientation
from .functions.recognize import TextItem, assemble_text, recognize_page
from .state.glyph_model import GlyphModel


class OCRError(RuntimeError):
    pass


class OCREngine:
    def __init__(self, variables: dict[str, str] | None = None):
        self._model: GlyphModel | None = None
        self._image: np.ndarray | None = None
        self._ink: np.ndarray | None = None
        self._variables: dict[str, str] = dict(variables or {})
        self._progress_listeners: list = []
        self._reset_results()

    # -- progress channel (/root/reference/src/ocr-engine.ts:84,
    #    src/ocr-client.ts:254-262) ------------------------------------

    def add_progress_listener(self, fn) -> None:
        self._progress_listeners.append(fn)

    def remove_progress_listener(self, fn) -> None:
        if fn in self._progress_listeners:
            self._progress_listeners.remove(fn)

    def _emit_progress(self, pct: int) -> None:
        for fn in self._progress_listeners:
            fn(pct)

    # -- config variables (/root/reference/src/ocr-engine.ts:128-150) -----

    def get_variable(self, name: str) -> str:
        if name not in self._variables:
            raise OCRError(f"Unable to get variable {name}")
        return self._variables[name]

    def set_variable(self, name: str, value: str) -> None:
        self._variables[name] = value

    # -- model ------------------------------------------------------------

    def load_model(self, model: GlyphModel | bytes | str) -> None:
        if isinstance(model, GlyphModel):
            self._model = model
        elif isinstance(model, bytes):
            self._model = GlyphModel.from_bytes(model)
        else:
            self._model = GlyphModel.load(model)
        self.model_version = MODEL_VERSION

    def _check_model(self) -> GlyphModel:
        if self._model is None:
            raise OCRError("No model loaded")
        return self._model

    # -- image ------------------------------------------------------------

    def load_image(self, img: np.ndarray) -> None:
        """Accepts uint8 [H,W] grayscale or [H,W,4] RGBA arrays, mirroring
        the ImageData validation (/root/reference/src/ocr-engine.ts:179-185)."""
        if img.ndim not in (2, 3):
            raise OCRError("Unsupported image shape")
        h, w = img.shape[:2]
        if w <= 0 or h <= 0:
            raise OCRError("Image width or height is zero")
        if img.ndim == 3 and img.shape[2] != 4:
            raise OCRError("Image data length does not match width/height")
        self.clear_image()
        self._image = np.asarray(img, dtype=np.uint8)
        self._ink = binarize(self._image)

    def clear_image(self) -> None:
        """/root/reference/src/ocr-engine.ts:222-225, src/lib.cpp:191-195."""
        self._image = None
        self._ink = None
        self._reset_results()

    def _reset_results(self) -> None:
        self._layout: tuple[list[Rect], list[list[Rect]]] | None = None
        self._ocr: tuple[list[TextItem], list[TextItem], float] | None = None

    def _check_image(self) -> np.ndarray:
        if self._ink is None:
            raise OCRError("No image loaded")
        return self._ink

    # -- lazy passes -------------------------------------------------------

    def _ensure_layout(self) -> tuple[list[Rect], list[list[Rect]]]:
        ink = self._check_image()
        if self._layout is None:
            self._layout = analyze_layout(ink)
        return self._layout

    def _ensure_ocr(self) -> tuple[list[TextItem], list[TextItem], float]:
        ink = self._check_image()
        model = self._check_model()
        if self._ocr is None:
            self._ocr = recognize_page(ink, model, on_progress=self._emit_progress)
        else:
            # Cached result: report completion only ([100] — the
            # reference's second-run behavior, test/ocr-engine-test.js:330-338).
            self._emit_progress(100)
        return self._ocr

    # -- outputs -----------------------------------------------------------

    def get_bounding_boxes(self, unit: str = "word") -> list[dict]:
        """Layout-only boxes {rect, flags}; no model required
        (/root/reference/src/ocr-engine.ts:241-245)."""
        lines, words = self._ensure_layout()
        items = []
        if unit == "line":
            for r in lines:
                items.append({"rect": r, "flags": 3})
        elif unit == "word":
            for wrects in words:
                for wi, r in enumerate(wrects):
                    flags = (1 if wi == 0 else 0) | (
                        2 if wi == len(wrects) - 1 else 0
                    )
                    items.append({"rect": r, "flags": flags})
        else:
            raise OCRError(f"unknown text unit {unit}")
        return items

    def get_text_boxes(self, unit: str = "word") -> list[TextItem]:
        words, lines, _ = self._ensure_ocr()
        if unit == "word":
            return words
        if unit == "line":
            return lines
        raise OCRError(f"unknown text unit {unit}")

    def get_text(self) -> str:
        _, lines, _ = self._ensure_ocr()
        return assemble_text(lines)

    def get_hocr(self) -> str:
        ink = self._check_image()
        words, lines, _ = self._ensure_ocr()
        h, w = ink.shape
        return render_hocr(words, lines, w, h, version=__version__)

    def get_orientation(self) -> dict:
        ink = self._check_image()
        model = self._check_model()
        rotation, confidence = detect_orientation(ink, model)
        return {"rotation": rotation, "confidence": confidence}

    def orient_and_recognize(self) -> dict:
        """Detect orientation AND keep the winning rotation's page as the
        current image with its recognition results primed — subsequent
        get_text_boxes/get_text/get_hocr calls are cache hits.  The Ray
        actor path uses this to avoid re-recognizing after derotation
        (orientation already recognized every candidate it scored)."""
        from .functions.orientation import detect_orientation_and_recognize

        ink = self._check_image()
        model = self._check_model()
        rotation, confidence, upright, results = detect_orientation_and_recognize(
            ink, model
        )
        self._image = None
        self._ink = upright
        self._layout = None
        self._ocr = results
        return {"rotation": rotation, "confidence": confidence}

    def derotated_ink(self, rotation: int) -> np.ndarray:
        return derotate(self._check_image(), rotation)

    def load_ink(self, ink: np.ndarray) -> None:
        """Load an already-binarized page (e.g. a derotated ink mask),
        skipping the Otsu pass. Resets lazy results like load_image."""
        self.clear_image()
        self._image = None
        self._ink = np.ascontiguousarray(ink, dtype=bool)
