package engine

// The collector differential and its policies, for the external test
// package: road scenarios come from internal/experiments, which imports
// this package.
var (
	CollectorDifferential = collectorDifferential
	CollectingFactories   = collectingFactories
)
