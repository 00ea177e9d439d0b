package engine

// The collector differentials, their instances and policies, and the
// collect-mode identity check, for the external test package: road
// scenarios come from internal/experiments, which imports this package.
var (
	CollectorDifferential = collectorDifferential
	BoundedDifferential   = boundedDifferential
	DifferentialInstances = differentialInstances
	CollectingFactories   = collectingFactories
	CollectModesIdentical = collectModesIdentical
)
