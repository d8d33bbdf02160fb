package engine

// The random generators and the LIMIT/OFFSET window check of the
// in-package differential tests, for the external ones (package engine_test may import internal/prune, which
// imports this package).
var (
	RandomFilteredExpr = randomFilteredExpr
	RandomQuery        = randomQuery
	RandomTriples      = randomTriples
	DedupUnions        = dedupUnions
	CheckWindow        = checkWindow
	IsSet              = isSet
	RowsOf             = rowsOf
)

// SetBatchRows moves every pull window boundary: operators and consumers
// pull at most n rows at a time until the returned func restores the
// default. A test hook, not an option.
func SetBatchRows(n int) (restore func()) {
	batchRows = n
	return func() { batchRows = batchMax }
}
