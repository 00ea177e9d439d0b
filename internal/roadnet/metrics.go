package roadnet

import "repro/internal/telemetry"

// Routing-engine telemetry on the default registry. Handles are resolved
// once at package init; the hot paths only touch atomics.
var (
	// routeQueries counts AlternativeRoutes computations (the unit of work
	// behind one user's recommended route set).
	routeQueries = telemetry.Default().Counter("roadnet_route_queries_total")
	// routeQuerySeconds is the latency histogram of those computations.
	routeQuerySeconds = telemetry.Default().Histogram("roadnet_route_query_seconds", nil)
	// Route-cache effectiveness: hits, misses (the computing caller), and
	// singleflight waits (duplicate concurrent requests that piggybacked on
	// an in-flight computation instead of recomputing).
	routeCacheHits   = telemetry.Default().Counter("roadnet_route_cache_hits_total")
	routeCacheMisses = telemetry.Default().Counter("roadnet_route_cache_misses_total")
	routeCacheWaits  = telemetry.Default().Counter("roadnet_route_cache_singleflight_waits_total")
	// landmarkBuilds counts ALT table constructions (once per graph+weight).
	landmarkBuilds = telemetry.Default().Counter("roadnet_landmark_builds_total")
	// landmarkPruneRatio is the fraction of the graph the last goal-directed
	// query did NOT settle — the work A* saved over plain Dijkstra.
	landmarkPruneRatio = telemetry.Default().Gauge("roadnet_landmark_prune_ratio")
)
