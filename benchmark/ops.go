package main

import (
	"fmt"
	"math/rand"

	"dualsim"
	"dualsim/benchmark/workloads"
)

type stackKind int

const (
	inProcess stackKind = iota // db.Query on one goroutine
	served                     // durable loopback server, NDJSON clients
	routed                     // router over two shard servers, NDJSON clients
)

// Sizing that is part of the ruler: changing any of it changes what the
// recorded numbers mean.
const (
	planCacheSize    = 128  // fits the in-process sets, not serve_mixed's texts
	compactThreshold = 1024 // overlay entries; ~17 applies, so several compactions per window
	applyAdds        = 50
	applyDels        = 10
	servedSeqLen     = 4000 // ops generated per serve_mixed client; never exhausted in a window
	servedPassLen    = 160  // ops per client (8 blocks) that count as one pass in the traced replay
	httpClients      = 2    // closed-loop clients of the HTTP workloads
	zipfS            = 1.2  // skew of the template constants
)

// op is one operation of a workload: a read (text set) or a write.
type op struct {
	id         string // query ID; template instances share their template's ID
	text       string
	adds, dels []dualsim.Triple
}

func (o *op) isRead() bool { return o.text != "" }

// workload is a named traffic mix over one kind of stack.
type workload struct {
	spec    workloadSpec
	kind    stackKind
	clients int
	// seqs[c] is client c's op sequence, cycled for as long as the window
	// lasts; passLen is how many ops of it make one pass.
	seqs    [][]op
	passLen int
	// tracePasses is how many passes the traced pass replays: a count, not
	// a duration, so the exact counters repeat. The short in-process
	// passes need more of them for their medians to settle.
	tracePasses int
	// reads are the distinct read texts set-up warms and the oracle pins
	// (for serve_mixed the base sets plus one instance per template; its
	// other instances are checked by sampling).
	reads []op
}

func buildWorkload(name string, in *inputs) (*workload, error) {
	var spec workloadSpec
	for _, s := range workloadSpecs {
		if s.Name == name {
			spec = s
		}
	}
	w := &workload{spec: spec, clients: 1}
	r := rand.New(rand.NewSource(in.seed))
	switch name {
	case "prune_bound":
		w.kind, w.tracePasses = inProcess, 30
		w.reads = readOps(workloads.PruneBound)
	case "join_bound":
		w.kind, w.tracePasses = inProcess, 5
		w.reads = readOps(workloads.JoinBound)
	case "route_union":
		w.kind, w.clients, w.tracePasses = routed, httpClients, 10
		for _, u := range workloads.Unions {
			w.reads = append(w.reads, op{id: u.ID, text: u.Text})
		}
	case "serve_mixed":
		w.kind, w.clients, w.passLen, w.tracePasses = served, httpClients, servedPassLen, 2
		w.reads = append(readOps(workloads.PruneBound), readOps(workloads.JoinBound)...)
		for _, t := range workloads.Templates {
			w.reads = append(w.reads, instantiate(t, in, 0))
		}
		for c := 0; c < w.clients; c++ {
			w.seqs = append(w.seqs, servedSeq(in, rand.New(rand.NewSource(in.seed*31+int64(c)))))
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// Read-only workloads: each client walks its own seed-shuffled order
	// of the same fixed set, one pass = every query once.
	w.passLen = len(w.reads)
	for c := 0; c < w.clients; c++ {
		seq := append([]op(nil), w.reads...)
		r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		w.seqs = append(w.seqs, seq)
	}
	return w, nil
}

func readOps(qs []workloads.Query) []op {
	out := make([]op, len(qs))
	for i, q := range qs {
		out[i] = op{id: q.ID, text: q.Text}
	}
	return out
}

func instantiate(t workloads.Template, in *inputs, rank int) op {
	consts := in.depts
	if t.Param == "award" {
		consts = in.awards
	}
	return op{id: t.ID, text: fmt.Sprintf(t.Text, consts[rank%len(consts)])}
}

// servedBlock is the fixed composition of every 20 ops of a serve_mixed
// client: w a write, j a read from the join_bound set, p one from the
// prune_bound set, t a template instance — 12 t, 4 p, 3 j, 1 w. It is a
// pattern, not a draw, so every seed runs the same mix and only the order
// inside the sets, the constants and the deltas differ; 3 j in 19 reads also
// puts the 95th percentile inside one join query's latencies instead of
// between two.
const servedBlock = "tptjttptjttptjttpttw"

// servedSeq is one serve_mixed client's sequence. The two fixed sets are
// walked in a seed-shuffled order, the templates in turn with Zipf-chosen
// constants.
func servedSeq(in *inputs, r *rand.Rand) []op {
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(in.depts)-1))
	prune, join := readOps(workloads.PruneBound), readOps(workloads.JoinBound)
	r.Shuffle(len(prune), func(i, j int) { prune[i], prune[j] = prune[j], prune[i] })
	r.Shuffle(len(join), func(i, j int) { join[i], join[j] = join[j], join[i] })
	seq := make([]op, servedSeqLen)
	var np, nj, nt int
	for i := range seq {
		switch servedBlock[i%len(servedBlock)] {
		case 'w':
			a, d := in.delta(r, applyAdds, applyDels)
			seq[i] = op{id: "apply", adds: a, dels: d}
		case 't':
			seq[i] = instantiate(workloads.Templates[nt%len(workloads.Templates)], in, int(zipf.Uint64()))
			nt++
		case 'p':
			seq[i] = prune[np%len(prune)]
			np++
		case 'j':
			seq[i] = join[nj%len(join)]
			nj++
		}
	}
	return seq
}
