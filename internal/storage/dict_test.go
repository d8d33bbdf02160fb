package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dualsim/internal/rdf"
)

// TestDictConcurrentPatchAndReads races interning against readers of an
// older snapshot: one writer patches a chain of snapshots, each interning
// fresh IRIs and literals — the empty value and values that need escaping
// among them — so the arena, the offset and kind columns and the id table
// grow and move, while readers of the base snapshot decode, look up,
// materialize and encode it. The base must read exactly as before, and a
// term interned after it must look up as absent. Run it under -race.
func TestDictConcurrentPatchAndReads(t *testing.T) {
	base := mustStore(t, fig1a())
	var want bytes.Buffer
	if err := base.EncodeSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	terms := make([]rdf.Term, base.NumNodes())
	for id := range terms {
		terms[id] = base.Term(NodeID(id))
	}
	const patches = 200
	fresh := func(i int) []rdf.Triple {
		s := fmt.Sprintf("new%d", i)
		return []rdf.Triple{
			rdf.T(s, "directed", fmt.Sprintf("film%d", i)),
			rdf.TL(s, "label", fmt.Sprintf("say \"%d\"\n\tü\xff", i)),
			rdf.TL(s, "note", ""),
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !done.Load() || round == 0; round++ {
				for id, term := range terms {
					if got := base.Term(NodeID(id)); got != term {
						errs <- fmt.Errorf("term %d reads %v, want %v", id, got, term)
						return
					}
					if got, ok := base.TermID(term); !ok || got != NodeID(id) {
						errs <- fmt.Errorf("%v looks up as %d (%v), want %d", term, got, ok, id)
						return
					}
				}
				for i := 0; i < patches; i += 17 {
					for _, tr := range fresh(i) {
						if id, ok := base.TermID(tr.S); ok {
							errs <- fmt.Errorf("%v, interned after the base, looks up as %d", tr.S, id)
							return
						}
						if id, ok := base.TermID(tr.O); ok {
							errs <- fmt.Errorf("%v, interned after the base, looks up as %d", tr.O, id)
							return
						}
					}
				}
				if n := len(base.Triples()); n != base.NumTriples() {
					errs <- fmt.Errorf("Triples lists %d, want %d", n, base.NumTriples())
					return
				}
				var got bytes.Buffer
				if err := base.EncodeSnapshot(&got); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					errs <- fmt.Errorf("the base encodes differently while the chain grows (err %v)", err)
					return
				}
			}
		}()
	}

	cur := base
	for i := 0; i < patches; i++ {
		next, stats, err := cur.Patch(fresh(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 + max(1-i, 0); stats.NewTerms != want { // the empty literal is new once
			t.Fatalf("patch %d interned %d terms, want %d", i, stats.NewTerms, want)
		}
		cur = next
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i := 0; i < patches; i++ {
		for _, tr := range fresh(i) {
			for _, term := range []rdf.Term{tr.S, tr.O} {
				id, ok := cur.TermID(term)
				if !ok || cur.Term(id) != term {
					t.Fatalf("%v looks up as %d (%v) in the chain's head", term, id, ok)
				}
			}
		}
	}
	if err := indexInvariants(cur); err != nil {
		t.Fatal(err)
	}
}

// TestDictHoldsNoPointerPerTerm: the term columns are flat, so the GC
// has nothing per term to walk. No field of the dictionary but the
// predicate table holds a Go string, pointer, slice or map per element.
func TestDictHoldsNoPointerPerTerm(t *testing.T) {
	var flat func(reflect.Type) bool
	flat = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return flat(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !flat(typ.Field(i).Type) {
					return false
				}
			}
			return true
		default:
			return typ.Kind() <= reflect.Complex128 // bool and the numbers
		}
	}
	typ := reflect.TypeOf(dict{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "preds" || f.Name == "predID" {
			continue // one entry per predicate, not per term
		}
		if !flat(f.Type) && (f.Type.Kind() != reflect.Slice || !flat(f.Type.Elem())) {
			t.Errorf("dict.%s is a %v: it holds a pointer per element", f.Name, f.Type)
		}
	}
}
