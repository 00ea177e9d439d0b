package engine

// The collector differential, its policies and the collect-mode identity
// check, for the external test
// package: road scenarios come from internal/experiments, which imports
// this package.
var (
	CollectorDifferential = collectorDifferential
	CollectingFactories   = collectingFactories
	CollectModesIdentical = collectModesIdentical
)
