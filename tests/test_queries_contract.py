"""Driver-contract invariants: every query has exactly one oracle, the
catalogue page matches the registry, entry() runs, and a sample of
queries executes at sf0.001 with stable schemas."""

import os

import pytest

SF = "/root/testdata/sf0.001"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_oracle_keys_subset_of_queries():
    import __ray_entry__ as e

    q, o = e.queries(), e.oracle_sql()
    assert set(o) == set(q)
    assert len(q) == 145


def test_register_rejects_duplicate_name(monkeypatch):
    from tesseract_wasm_ray import catalog

    monkeypatch.setattr(catalog, "_TABLE", {})
    catalog.register("q", lambda sf_dir: None, oracle="SELECT 1")
    with pytest.raises(ValueError, match="already registered"):
        catalog.register("q", lambda sf_dir: None, oracle="SELECT 2")
    assert catalog._TABLE["q"].oracle == "SELECT 1"


def test_catalog_page_is_fresh():
    """docs/CATALOG.md is what tools/gen_catalog.py renders today
    (regenerate it with ``python tools/gen_catalog.py``)."""
    import importlib.util

    path = os.path.join(REPO, "tools", "gen_catalog.py")
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with open(os.path.join(REPO, "docs", "CATALOG.md")) as f:
        assert f.read() == gen.render()


def test_entry_runs(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    n = ds.count() if hasattr(ds, "count") else len(ds)
    assert n > 0


@pytest.mark.parametrize(
    "name,cols",
    [
        ("doc_token_stats", {"doc_id", "n_tokens", "n_bpe_tokens"}),
        ("exact_dedup", {"doc_id", "text"}),
        ("top_long_docs", {"doc_id", "n_chars"}),
        ("emb_topk_cosine", {"vec_id", "cos_sim"}),
        ("tpch_q1", {"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "avg_qty", "count_order"}),
        ("orientation_detect", {"media_ref", "rotation", "confidence"}),
        ("boilerplate_strip", {"doc_id", "offset", "text"}),
        ("tpch_q18", {"c_name", "o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"}),
        ("running_revenue", {"o_custkey", "o_orderkey", "running_total"}),
        ("tpch_q13", {"c_count", "custdist"}),
        ("tpch_q17", {"avg_yearly"}),
        ("tpch_q22", {"cntrycode", "numcust", "totacctbal"}),
        ("tpch_q2", {"p_partkey", "s_suppkey", "min_price", "s_name"}),
        ("tpch_q20", {"s_suppkey", "s_name"}),
        ("tpch_q21", {"s_name", "numwait"}),
        ("tpch_q9", {"nation", "o_year", "sum_profit"}),
        ("tpch_q15", {"s_suppkey", "s_name", "total_revenue"}),
        ("tpch_q11", {"p_partkey", "part_value"}),
        ("tpch_q16", {"p_brand", "p_size", "supplier_cnt"}),
        ("pagerank", {"doc_id", "rank"}),
        ("customer_ntile", {"c_custkey", "c_nationkey", "tile"}),
        ("graph_triangles", {"doc_id", "n_triangles"}),
        ("graph_components", {"doc_id", "component"}),
        ("lang_regression", {"lang", "n_docs", "slope", "intercept"}),
        ("event_interarrival", {"event_id", "user_id", "gap_us"}),
        ("source_lang_pivot", {"source", "n_de", "n_en", "n_es", "n_fr", "n_zh"}),
        ("token_stream_pack", {"window_id", "text", "n_tokens"}),
        ("gopher_filter", {"doc_id", "n_tokens", "keep"}),
        ("monthly_revenue_delta", {"month", "revenue", "delta"}),
        ("snapshot_diff", {"doc_id", "status"}),
        ("ocr_spell_candidates", {"term", "suggestion", "term_cnt", "suggestion_cnt"}),
        ("phash_dedup", {"media_ref", "width", "height"}),
        ("classifier_score", {"doc_id", "score", "keep"}),
        ("corr_matrix", {"col_x", "col_y", "corr"}),
        ("mad_outliers", {"doc_id", "lang", "n_chars", "is_outlier"}),
        ("temperature_mixture", {"doc_id", "lang", "rep"}),
        ("event_log_dedup", {"event_id", "user_id", "event_type", "ts"}),
        ("image_knn", {"query_ref", "neighbor_ref", "hamming", "rk"}),
        ("curate_v2", {"lang", "n_docs", "n_rows_out"}),
        ("dedup_cluster_sizes", {"cluster_size", "n_clusters"}),
        ("lang_percent_rank", {"doc_id", "lang", "n_chars", "pr"}),
        ("cms_term_counts", {"term", "cms_est", "exact_cnt"}),
        ("lang_trimmed_mean", {"lang", "p05", "p95", "n_in_band", "trimmed_mean"}),
        ("source_diversity", {"source", "n_docs", "n_langs", "simpson"}),
    ],
)
def test_query_schema(ray_session, name, cols):
    import pandas as pd

    import __ray_entry__ as e

    res = e.queries()[name](SF)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    assert set(df.columns) == cols
    assert len(df) > 0


def test_image_knn_chunked_broadcast_matches_single(ray_session):
    """Forcing the 256 MB broadcast budget down to a few rows splits the
    query set across many ray.put chunks; the unioned partials must fold
    to exactly the single-broadcast result (chunking only partitions the
    query set — VERDICT r04 item 1)."""
    from tesseract_wasm_ray.catalog.multimodal import q_image_knn

    def canon(res):
        df = res.to_pandas()
        return df.sort_values(list(df.columns), ignore_index=True)

    one = canon(q_image_knn(SF))
    many = canon(q_image_knn(SF, broadcast_budget_bytes=64 * 5))  # ~5 rows/chunk
    assert one.equals(many)
    assert (one.groupby("query_ref")["rk"].max() <= 3).all()
