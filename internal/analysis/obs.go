package analysis

import (
	"opportunet/internal/obs"
)

// anMetrics are the aggregation layer's observability handles, nil
// (free no-ops) until a command wires a registry. The two caches they
// watch — the per-hop-bound frontier memo and the success-curve
// cache — are what turns a diameter sweep from O(hops × pairs × grid)
// repeated integrations into one integration per hop bound; their hit
// ratios are the first thing to check when an aggregation is slow.
var anMetrics struct {
	curveHits    *obs.Counter // analysis_curve_cache_hits_total
	curveMisses  *obs.Counter // analysis_curve_cache_misses_total
	memoHits     *obs.Counter // analysis_frontier_memo_hits_total
	memoMisses   *obs.Counter // analysis_frontier_memo_misses_total
	curveBufWarm *obs.Counter // analysis_curvebuf_pool_reuse_total
}

func init() {
	obs.OnInstrument(func(r *obs.Registry) {
		anMetrics.curveHits = r.Counter("analysis_curve_cache_hits_total",
			"success-curve integrations answered from the cache")
		anMetrics.curveMisses = r.Counter("analysis_curve_cache_misses_total",
			"success-curve integrations computed from scratch")
		anMetrics.memoHits = r.Counter("analysis_frontier_memo_hits_total",
			"per-hop-bound frontier sets answered from the memo")
		anMetrics.memoMisses = r.Counter("analysis_frontier_memo_misses_total",
			"per-hop-bound frontier sets built from the result archives")
		anMetrics.curveBufWarm = r.Counter("analysis_curvebuf_pool_reuse_total",
			"integration buffers reused warm from the pool")
	})
}
