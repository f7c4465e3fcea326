"""Vector aggregation + TF-IDF family (catalog/text.py, catalog/retrieval.py):
per-label centroid partials, distributed document frequency, and
broadcast-idf scoring."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def _mini_docs(tmp_path):
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["a b a", "b c", "", "a a a a"],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [5, 3, 0, 7],
        }
    )
    p = tmp_path / "documents.parquet"
    df.to_parquet(p)
    return str(tmp_path)


def test_doc_freq_counts_docs_not_instances(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.text import _doc_freq

    out = _doc_freq(_mini_docs(tmp_path)).to_pandas().set_index("term")["df"]
    # 'a' appears in docs 1 and 4 (df=2) though 6 instances total
    assert out["a"] == 2
    assert out["b"] == 2
    assert out["c"] == 1


def test_tfidf_scores_match_closed_form(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.text import q_tfidf_doc_scores

    sf = _mini_docs(tmp_path)
    out = (
        q_tfidf_doc_scores(sf).to_pandas().set_index("doc_id")["tfidf"].sort_index()
    )
    n = 4
    idf = {"a": math.log(n / 2), "b": math.log(n / 2), "c": math.log(n / 1)}
    assert out[1] == round(2 * idf["a"] + idf["b"], 4)
    assert out[2] == round(idf["b"] + idf["c"], 4)
    assert out[3] == 0.0  # empty doc
    assert out[4] == round(4 * idf["a"], 4)


def test_label_centroid_partials_reduce_exactly(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.retrieval import q_emb_label_centroids

    rng = np.random.default_rng(5)
    emb = rng.normal(size=(60, 8)).astype(np.float32)
    lab = rng.integers(0, 3, 60).astype(np.int32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(60), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            "label": pa.array(lab, pa.int32()),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(t, tmp_path / "embeddings.parquet")
    out = q_emb_label_centroids(str(tmp_path)).to_pandas()
    assert len(out) == 3 * 8
    for label in range(3):
        want = emb[lab == label].astype(np.float64).mean(axis=0)
        got = (
            out[out["label"] == label].sort_values("dim")["centroid"].to_numpy()
        )
        np.testing.assert_allclose(got, np.round(want, 6), atol=1e-6)
