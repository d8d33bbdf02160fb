package engine

// The random generators and the LIMIT/OFFSET window check of the
// in-package differential tests, for the external ones (package engine_test may import internal/prune, which
// imports this package).
var (
	RandomFilteredExpr = randomFilteredExpr
	RandomTriples      = randomTriples
	CheckWindow        = checkWindow
	IsSet              = isSet
)
