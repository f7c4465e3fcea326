from .dedup import (  # noqa: F401
    chunk_dedup_docs,
    dup_ngram_stats,
    exact_dedup,
    exact_substring_dedup,
    incremental_exact_dedup,
    keep_first_by,
    keep_min_by,
    minhash_lsh_dedup,
    simhash_dedup,
)
from .extract import ExtractConfig, ocr_media, run_extract, validate_against_golden  # noqa: F401
from .joins import bucket_lookup_join, lookup_join_auto, member_filter  # noqa: F401
