package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"dualsim"
	"dualsim/internal/datagen"
)

// scale sizes the generated data. Both datasets live in one store: their
// vocabularies (ub:/rdf: vs dbo:/foaf:) are disjoint, so every query still
// touches only its own dataset while one session serves both sets.
type scale struct {
	name         string
	universities int
	kg           int
}

var (
	// fullScale is about 226k LUBM + 138k knowledge-graph triples. It is
	// smaller than the issue's 100/30 because the driver makes 92 runs in
	// 57 minutes, so generation and set-up must stay near a second each.
	fullScale  = scale{"full", 100, 16}
	smokeScale = scale{"smoke", 1, 1}
)

// updatedPreds are the predicates serve_mixed writes; all are read by the
// query sets (L0/L2/L4 templates, D0/B3/R2, …).
var updatedPreds = []string{"ub:advisor", "ub:memberOf", "dbo:director"}

// inputs is everything generated from the seed. The program under test
// only ever sees the triples and the op sequences derived from them.
type inputs struct {
	seed    int64
	sc      scale
	triples []dualsim.Triple
	nLUBM   int // triples[:nLUBM] is the LUBM part
	depts   []string
	awards  []string
	// pools[p] are the triples of updated predicate p, the source of
	// delete targets and of subject/object pools for adds.
	pools map[string][]dualsim.Triple
}

func generate(seed int64, sc scale) *inputs {
	lubm := datagen.LUBM(datagen.DefaultLUBM(sc.universities, seed))
	kg := datagen.KG(datagen.DefaultKG(sc.kg, seed))
	in := &inputs{seed: seed, sc: sc, nLUBM: len(lubm), pools: map[string][]dualsim.Triple{}}
	in.triples = append(lubm, kg...)
	seen := map[string]bool{}
	for _, t := range in.triples {
		switch {
		case t.P == "rdf:type" && t.O.Value == "ub:Department":
			in.depts = append(in.depts, t.S.Value)
		case t.P == "dbo:award" && !seen[t.O.Value]:
			seen[t.O.Value] = true
			in.awards = append(in.awards, t.O.Value)
		}
		for _, p := range updatedPreds {
			if t.P == p {
				in.pools[p] = append(in.pools[p], t)
			}
		}
	}
	sort.Strings(in.depts)
	sort.Strings(in.awards)
	return in
}

// checksum is the triple count and the FNV-64a of the sorted triples of one
// dataset, so reordering inside the generator is not reported as drift but
// any changed, added or lost triple is.
func checksum(ts []dualsim.Triple) (int, uint64) {
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return len(ts), h.Sum64()
}

// dataPin is the recorded checksum of one (scale, seed) input.
type dataPin struct {
	lubmN, kgN     int
	lubmFNV, kgFNV uint64
}

// pins freeze internal/datagen's output for the seeds the acceptance runs
// use. A mismatch means the generator drifted and every recorded number is
// against different data; the run aborts instead of measuring it.
var pins = map[string]dataPin{
	"full/42":  {226143, 137955, 0x1e39f70df4a9ab1d, 0x35f242cc86d702e0},
	"full/7":   {224392, 137662, 0xa8285f41e788f98a, 0x60f27e0986d37875},
	"smoke/42": {2146, 8820, 0x636a197636e8a3c6, 0x8067aa8cd182ccec},
}

func pinKey(sc scale, seed int64) string { return fmt.Sprintf("%s/%d", sc.name, seed) }

func (in *inputs) pin() dataPin {
	ln, lh := checksum(in.triples[:in.nLUBM])
	kn, kh := checksum(in.triples[in.nLUBM:])
	return dataPin{ln, kn, lh, kh}
}

// pinLine renders the inputs' pin as an entry of the pins table.
func (in *inputs) pinLine() string {
	p := in.pin()
	return fmt.Sprintf("%q: {%d, %d, %#x, %#x},", pinKey(in.sc, in.seed), p.lubmN, p.kgN, p.lubmFNV, p.kgFNV)
}

func (in *inputs) checkPin() error {
	want, ok := pins[pinKey(in.sc, in.seed)]
	if !ok {
		return nil
	}
	got := in.pin()
	if got != want {
		return fmt.Errorf("dataset drift at %s: internal/datagen now yields lubm %d triples fnv %#x, kg %d triples fnv %#x; pinned lubm %d fnv %#x, kg %d fnv %#x — recorded numbers no longer apply, re-baseline deliberately",
			pinKey(in.sc, in.seed), got.lubmN, got.lubmFNV, got.kgN, got.kgFNV, want.lubmN, want.lubmFNV, want.kgN, want.kgFNV)
	}
	return nil
}

// delta builds one write of serve_mixed: adds new edges between existing
// subjects and objects of the updated predicates and deletes existing ones
// (a target deleted earlier is a no-op, never an error).
func (in *inputs) delta(r *rand.Rand, adds, dels int) (a, d []dualsim.Triple) {
	for i := 0; i < adds; i++ {
		pool := in.pools[updatedPreds[i%len(updatedPreds)]]
		s, o := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
		a = append(a, dualsim.Triple{S: s.S, P: s.P, O: o.O})
	}
	for i := 0; i < dels; i++ {
		pool := in.pools[updatedPreds[i%len(updatedPreds)]]
		d = append(d, pool[r.Intn(len(pool))])
	}
	return a, d
}
