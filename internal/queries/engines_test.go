package queries

import (
	"context"
	"testing"

	"dualsim/internal/engine"
)

// TestEnginesAgreeOnWorkload evaluates every benchmark query with the
// Volcano executor and the IndexNL oracle and requires identical result
// sets — the workload-level version of the random-query differential
// tests in internal/engine.
func TestEnginesAgreeOnWorkload(t *testing.T) {
	stores := testStores(t)
	volcano := engine.NewVolcano()
	index := engine.NewIndexNL()
	for _, s := range All() {
		st := stores[s.Dataset]
		q := s.Query()
		a, err := volcano.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s volcano: %v", s.ID, err)
		}
		b, err := index.Evaluate(context.Background(), st, q)
		if err != nil {
			t.Fatalf("%s index: %v", s.ID, err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: engines disagree (%d vs %d rows)", s.ID, a.Len(), b.Len())
		}
	}
}
