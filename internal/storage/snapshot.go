package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"dualsim/internal/bitmat"
	"dualsim/internal/rdf"
)

// This file implements the binary serialization of a Store — the
// payload of the durable snapshot files written by internal/persist, and
// (EncodeSlice) of the predicate slices a shard exports to the router.
// The codec lives here because it walks the store's internals (the
// dictionary tables and the per-predicate PSO runs); file framing,
// versioning, epochs and integrity checks are the persist layer's job.
//
// Body layout (all integers unsigned varints unless noted):
//
//	nTerms, then per term: 1 byte kind, length-prefixed value
//	nPreds, then per predicate: length-prefixed IRI
//	per predicate, in id order: pair count, then the PSO run with the
//	subject delta-encoded against the previous pair's subject and the
//	object raw
//
// The term section is the dictionary's arena spelled out: DecodeSnapshot
// copies each length-checked value straight into a fresh arena sized by
// a first pass, fills the offset and kind columns and builds the id
// table once, with no string or map entry per term. Only the PSO order
// is stored; the decoder rebuilds the POS order and the row directories
// (newPredIndex) — still far cheaper than re-parsing and re-interning an
// N-Triples dump (the benchmark's persist.coldboot_s row).

// Sanity bounds for decoding untrusted bytes: a count beyond these is
// corruption (the CRC upstream should have caught it), not a real store.
const (
	maxSnapshotElems = 1 << 31
	maxSnapshotValue = 1 << 28
	// maxSnapshotDirs, plus 64 bytes per body byte, bounds the row
	// directories a decoded body may build. Each non-empty predicate
	// costs dirBytesPerPred of the universe, so without a bound a body
	// listing many one-pair predicates over many terms would cost
	// memory quadratic in its length.
	maxSnapshotDirs = 16 << 20
)

// dirBytesPerPred is the size of one predicate's two row directories
// over an n-term universe: per direction a summary bit and a 4-byte
// prefix count per 64 terms.
func dirBytesPerPred(n uint64) uint64 { return 2 * (n/8 + n/16 + 8) }

// EncodeSnapshot writes the store body to w.
func (st *Store) EncodeSnapshot(w io.Writer) error {
	return st.encodeBody(w, st.predIDs(), nil)
}

// EncodeSlice writes, in the EncodeSnapshot layout, the body of the
// store cut down to the given predicates: each once however often it is
// listed, with exactly the terms their triples use. A term's id in the
// slice is its rank among those terms in this store's id order, a
// monotone map, so every PSO run is written in the order the index
// already holds — no sort and no intermediate store.
func (st *Store) EncodeSlice(w io.Writer, preds []PredID) error {
	preds = slices.Compact(slices.Sorted(slices.Values(preds)))
	return st.encodeBody(w, preds, st.usedTerms(preds))
}

// termRanks numbers the n node ids some PSO runs use by rank in id
// order: one bit per id and, per 64-id word, the count of used ids
// before it.
type termRanks struct {
	used   []uint64
	before []uint32
	n      int
}

// usedTerms ranks the node ids that the triples of the given predicates
// use, marking each run's subject and object column in one pass.
func (st *Store) usedTerms(preds []PredID) *termRanks {
	r := &termRanks{used: make([]uint64, (st.NumNodes()+63)/64)}
	for _, p := range preds {
		ix := &st.byPred[p]
		for _, s := range ix.psoS {
			r.used[s/64] |= 1 << (s % 64)
		}
		for _, o := range ix.psoO {
			r.used[o/64] |= 1 << (o % 64)
		}
	}
	r.before = make([]uint32, len(r.used))
	for i, w := range r.used {
		r.before[i] = uint32(r.n)
		r.n += bits.OnesCount64(w)
	}
	return r
}

// ids yields the used ids in id order.
func (r *termRanks) ids(yield func(NodeID) bool) {
	for i, word := range r.used {
		for ; word != 0; word &= word - 1 {
			if !yield(NodeID(i*64 + bits.TrailingZeros64(word))) {
				return
			}
		}
	}
}

// of returns id's rank among the used ids, its id in a slice or a
// compacted store; a nil receiver is the identity (the full snapshot
// keeps every id).
func (r *termRanks) of(id NodeID) NodeID {
	if r == nil {
		return id
	}
	w := id / 64
	return NodeID(r.before[w]) + NodeID(bits.OnesCount64(r.used[w]&(1<<(id%64)-1)))
}

// encodeBody writes the body layout over the given predicates, keeping
// every term (ranks nil) or the used ones renumbered by ranks.
func (st *Store) encodeBody(w io.Writer, preds []PredID, ranks *termRanks) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n]) // bufio latches the first error; Flush reports it
	}
	putTerm := func(id NodeID) {
		bw.WriteByte(byte(st.terms.kind(id)))
		v := st.terms.value(id)
		putUvarint(uint64(len(v)))
		bw.WriteString(v)
	}

	if ranks == nil {
		putUvarint(uint64(st.terms.len()))
		for id := range NodeID(st.terms.len()) {
			putTerm(id)
		}
	} else {
		putUvarint(uint64(ranks.n))
		for id := range ranks.ids {
			putTerm(id)
		}
	}
	putUvarint(uint64(len(preds)))
	for _, p := range preds {
		putUvarint(uint64(len(st.preds[p])))
		bw.WriteString(st.preds[p])
	}
	for _, p := range preds {
		ix := &st.byPred[p]
		putUvarint(uint64(len(ix.psoS)))
		prev := NodeID(0)
		for i, sub := range ix.psoS {
			sub = ranks.of(sub)
			putUvarint(uint64(sub - prev))
			putUvarint(uint64(ranks.of(ix.psoO[i])))
			prev = sub
		}
	}
	return bw.Flush()
}

// DecodeSnapshot reconstructs a store (with a fresh dictionary) from a
// body written by EncodeSnapshot or EncodeSlice. It validates structural
// invariants — node ids in range, PSO runs strictly sorted — so a
// corrupted body fails loudly instead of producing a store with broken
// binary-search indexes. It decodes straight off the slice: the persist
// layer already holds the whole file for its checksum pass.
func DecodeSnapshot(buf []byte) (*Store, error) {
	dec := snapDecoder{buf: buf}

	// Element counts are additionally bounded by the bytes actually
	// present (a term needs ≥ 2 bytes, a predicate ≥ 1, a pair ≥ 2), so
	// a corrupt count fails cleanly instead of sizing a giant
	// preallocation.
	nTerms, err := dec.uvarint("term count", min(maxSnapshotElems, uint64(len(buf))/2))
	if err != nil {
		return nil, err
	}
	// Two walks over the term section: the first validates it and sizes
	// the arena, the second copies the values in.
	termsAt := dec.off
	walkTerms := func(fn func(k rdf.Kind, v []byte)) error {
		dec.off = termsAt
		for i := uint64(0); i < nTerms; i++ {
			kind, err := dec.byte("term kind")
			if err != nil {
				return err
			}
			if rdf.Kind(kind) != rdf.IRI && rdf.Kind(kind) != rdf.Literal {
				return fmt.Errorf("storage: snapshot term %d has unknown kind %d", i, kind)
			}
			v, err := dec.bytes("term")
			if err != nil {
				return err
			}
			fn(rdf.Kind(kind), v)
		}
		return nil
	}
	size := uint64(0)
	if err := walkTerms(func(_ rdf.Kind, v []byte) { size += uint64(len(v)) }); err != nil {
		return nil, err
	}
	if size > math.MaxUint32 {
		return nil, fmt.Errorf("storage: snapshot term values total %d bytes, over the dictionary's %d", size, uint64(math.MaxUint32))
	}
	d := newDict()
	d.arena = make([]byte, 0, size)
	d.offsets = make([]uint32, 1, nTerms+1)
	d.kinds = make([]rdf.Kind, 0, nTerms)
	_ = walkTerms(func(k rdf.Kind, v []byte) { push(d, k, v) }) // the first walk validated every term
	if !d.reindex(tableSize(int(nTerms))) {
		return nil, fmt.Errorf("storage: snapshot dictionary lists a term twice")
	}

	nPreds, err := dec.uvarint("predicate count", min(maxSnapshotElems, uint64(dec.remaining())))
	if err != nil {
		return nil, err
	}
	d.preds = make([]string, 0, nPreds)
	d.predID = make(map[string]PredID, nPreds)
	for i := uint64(0); i < nPreds; i++ {
		b, err := dec.bytes("predicate")
		if err != nil {
			return nil, err
		}
		p := string(b)
		d.predID[p] = PredID(len(d.preds))
		d.preds = append(d.preds, p)
	}
	if len(d.predID) != len(d.preds) {
		return nil, fmt.Errorf("storage: snapshot dictionary lists a predicate twice")
	}

	st := &Store{d: d, empty: bitmat.EmptyPair(int(nTerms))}
	st.terms, st.preds = d.views()
	st.byPred = make([]predIndex, nPreds)
	dirBudget, dirBytes := 64*uint64(len(buf))+maxSnapshotDirs, uint64(0)
	for p := range st.byPred {
		n, err := dec.uvarint("pair count", min(maxSnapshotElems, uint64(dec.remaining())/2))
		if err != nil {
			return nil, err
		}
		if n > 0 {
			if dirBytes += dirBytesPerPred(nTerms); dirBytes > dirBudget {
				return nil, fmt.Errorf("storage: snapshot row directories of %d+ predicates over %d terms exceed %d bytes for a %d-byte body", p+1, nTerms, dirBudget, len(buf))
			}
		}
		cols := make([]NodeID, 2*n)
		s, o := cols[:n:n], cols[n:]
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			da, err := dec.uvarint("subject delta", maxSnapshotElems)
			if err != nil {
				return nil, err
			}
			b, err := dec.uvarint("object id", maxSnapshotElems)
			if err != nil {
				return nil, err
			}
			a := prev + da
			if a >= nTerms || b >= nTerms {
				return nil, fmt.Errorf("storage: snapshot pair (%d, %d) of predicate %d outside the %d-term universe", a, b, p, nTerms)
			}
			if i > 0 && da == 0 && o[i-1] >= NodeID(b) {
				return nil, fmt.Errorf("storage: snapshot PSO run of predicate %d is not strictly sorted at pair %d", p, i)
			}
			s[i], o[i] = NodeID(a), NodeID(b)
			prev = a
		}
		st.byPred[p] = newPredIndex(st.terms.len(), s, o)
		st.nTrip += int(n)
	}
	return st, nil
}

// snapDecoder walks a snapshot body slice.
type snapDecoder struct {
	buf []byte
	off int
}

func (d *snapDecoder) remaining() int { return len(d.buf) - d.off }

func (d *snapDecoder) uvarint(what string, max uint64) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: snapshot %s: truncated varint", what)
	}
	if v > max {
		return 0, fmt.Errorf("storage: snapshot %s %d exceeds bound %d", what, v, max)
	}
	d.off += n
	return v, nil
}

func (d *snapDecoder) byte(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("storage: snapshot %s: unexpected end of body", what)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// bytes returns the next length-prefixed value, aliasing the body. It
// labels a bad length with what alone: the label is built per call, and
// a concatenation here would allocate once per term.
func (d *snapDecoder) bytes(what string) ([]byte, error) {
	n, err := d.uvarint(what, maxSnapshotValue)
	if err != nil {
		return nil, err
	}
	if uint64(len(d.buf)-d.off) < n {
		return nil, fmt.Errorf("storage: snapshot %s: truncated (want %d bytes, have %d)", what, n, len(d.buf)-d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}
