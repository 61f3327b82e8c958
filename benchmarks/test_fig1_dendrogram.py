"""Figure 1: benchmark-similarity dendrogram (PCA + Ward clustering)."""

from paper_claims import emit

from repro.analysis import build_dendrogram, extract_features, render_text_dendrogram
from repro.config.device import PimDeviceType


def build(paper_suite):
    features = [
        extract_features(
            paper_suite.benchmarks[key],
            paper_suite.result(key, PimDeviceType.BITSIMD_V_AP),
        )
        for key in paper_suite.benchmark_keys()
    ]
    return build_dendrogram(features)


def test_fig1_dendrogram(paper_suite):
    result = build(paper_suite)
    emit("Figure 1: Benchmark Similarity Dendrogram", render_text_dendrogram(result))

    assert len(result.merge_order()) == 17  # 18 benchmarks -> 17 merges

    # The paper notes some benchmarks are near-duplicates: the three VGG
    # variants cluster together, as do the two AES directions.
    clusters = result.cluster_of(8)
    assert clusters["VGG-13"] == clusters["VGG-16"] == clusters["VGG-19"]
    assert clusters["AES-Encryption"] == clusters["AES-Decryption"]
