"""Memory guard: the traced peak, per link, of each stage that builds a
network and ranks it, above what was live before the stage. numpy reports
its data buffers to tracemalloc, so the counts repeat exactly. Each bound is
the measured value plus 25%: a stage that starts keeping a link-length
temporary it did not keep before (8 bytes per link for a float64 or intp
array) fails here."""

import tracemalloc

import numpy as np

from reprank.ranking import RankingConfig, rank
from reprank.synth import SynthSpec, generate_network, generate_topology

SPEC = SynthSpec(1500, 1000, 120_000, seed=1)
# bytes per link on SPEC, measured: generate_topology 28.6, generate_network
# 43.2, rating_classes 10.0, rank 25.5 (25.9 when its bound was set), rr 10.8
BOUNDS = {"generate_topology": 35.8, "generate_network": 54.0,
          "rating_classes": 12.5, "rank": 32.3, "rr, 3 iterations": 13.6}


def test_quarter_paper_scale_stages_stay_within_their_peaks():
    peaks = {}

    def stage(name, run):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run()
        peaks[name] = tracemalloc.get_traced_memory()[1] - live
        return out

    tracemalloc.start()
    try:
        stage("generate_topology", lambda: generate_topology(
            SPEC, np.random.default_rng(SPEC.seed)))
        g, _ = stage("generate_network", lambda: generate_network(SPEC))
        stage("rating_classes", lambda: g.rating_classes)
        stage("rank", lambda: rank(g, RankingConfig(algorithm="mean")))
        stage("rr, 3 iterations", lambda: rank(
            g, RankingConfig(algorithm="rr", max_iterations=3)))
    finally:
        tracemalloc.stop()
    per_link = {k: v / g.num_links for k, v in peaks.items()}
    assert all(per_link[k] <= BOUNDS[k] for k in BOUNDS), per_link
