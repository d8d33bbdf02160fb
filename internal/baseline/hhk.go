package baseline

import (
	"dualsim/internal/core"
	"dualsim/internal/storage"
)

// combo identifies one tracked support relation: for Dir == fwd it watches
// |F_a(y) ∩ sim(V)| for all data nodes y, for Dir == bwd it watches
// |B_a(y) ∩ sim(V)|. The remove set of a combo collects the y whose count
// reached zero — the "definite nodes that cannot simulate the respective
// adjacent nodes" of the paper's HHK discussion (§3.3).
type combo struct {
	v    int
	pred storage.PredID
	fwd  bool
}

type hhkState struct {
	st  *storage.Store
	res *Result

	combos    []combo
	comboIdx  map[combo]int
	cnt       [][]int32
	remove    []map[storage.NodeID]bool
	consumers [][]int // combo -> pattern variables to prune with its remove set
	byVar     [][]int // pattern variable -> combos tracking its sim set

	queue  []int
	queued []bool
}

// HHK computes the largest dual simulation with remove-set propagation in
// the style of Henzinger, Henzinger and Kopke, adapted to labeled graphs
// and duality: one remove set per (pattern variable, label, direction)
// triple, maintained through support counters. It takes the same branch
// as MaEtAl.
func HHK(st *storage.Store, p *core.Branch) *Result {
	h := &hhkState{
		st:       st,
		res:      &Result{Sim: initialCandidates(st, p)},
		comboIdx: make(map[combo]int),
	}
	h.byVar = make([][]int, len(p.Vars))

	// Register tracked combos and their consumers from the pattern edges.
	for _, e := range p.Edges {
		pid, ok := st.PredIDOf(e.Pred)
		if !ok {
			// initialCandidates already emptied both endpoints.
			continue
		}
		// sim(From) members need an a-successor in sim(To):
		// combo (To, a, fwd) consumed by From.
		ci := h.combo(combo{v: e.To, pred: pid, fwd: true})
		h.consumers[ci] = append(h.consumers[ci], e.From)
		// sim(To) members need an a-predecessor in sim(From):
		// combo (From, a, bwd) consumed by To.
		ci = h.combo(combo{v: e.From, pred: pid, fwd: false})
		h.consumers[ci] = append(h.consumers[ci], e.To)
	}

	h.initCounters()
	h.run()
	return h.res
}

func (h *hhkState) combo(c combo) int {
	if i, ok := h.comboIdx[c]; ok {
		return i
	}
	i := len(h.combos)
	h.comboIdx[c] = i
	h.combos = append(h.combos, c)
	h.cnt = append(h.cnt, make([]int32, h.st.NumNodes()))
	h.remove = append(h.remove, make(map[storage.NodeID]bool))
	h.consumers = append(h.consumers, nil)
	h.queued = append(h.queued, false)
	h.byVar[c.v] = append(h.byVar[c.v], i)
	return i
}

// initCounters fills the support counters from the initial candidate sets
// and seeds the remove sets: y enters remove iff it has the right incident
// edge at all but no support in sim(v).
func (h *hhkState) initCounters() {
	for ci, c := range h.combos {
		cnt := h.cnt[ci]
		for x := range h.res.Sim[c.v] {
			// y has x in F_a(y) iff y ∈ B_a(x), and dually.
			var ys []storage.NodeID
			if c.fwd {
				ys = h.st.Subjects(c.pred, x)
			} else {
				ys = h.st.Objects(c.pred, x)
			}
			for _, y := range ys {
				cnt[y]++
			}
		}
		// Seed: every node with the right incident edge but zero support.
		subjects, objects := h.st.PSO(c.pred)
		ys := subjects
		if !c.fwd {
			ys = objects
		}
		for _, y := range ys {
			if cnt[y] == 0 {
				h.remove[ci][y] = true
			}
		}
		if len(h.remove[ci]) > 0 {
			h.enqueue(ci)
		}
	}
}

func (h *hhkState) enqueue(ci int) {
	if !h.queued[ci] {
		h.queued[ci] = true
		h.queue = append(h.queue, ci)
	}
}

func (h *hhkState) run() {
	for len(h.queue) > 0 {
		ci := h.queue[0]
		h.queue = h.queue[1:]
		h.queued[ci] = false
		h.res.Iterations++

		rm := h.remove[ci]
		h.remove[ci] = make(map[storage.NodeID]bool)
		for _, u := range h.consumers[ci] {
			for y := range rm {
				h.res.Checks++
				if h.res.Sim[u][y] {
					delete(h.res.Sim[u], y)
					h.onRemoved(u, y)
				}
			}
		}
	}
}

// onRemoved updates every combo tracking sim(u) after y left it.
func (h *hhkState) onRemoved(u int, y storage.NodeID) {
	for _, ci := range h.byVar[u] {
		c := h.combos[ci]
		var zs []storage.NodeID
		if c.fwd {
			// cnt[z] = |F_a(z) ∩ sim(u)| drops for the a-predecessors of y.
			zs = h.st.Subjects(c.pred, y)
		} else {
			zs = h.st.Objects(c.pred, y)
		}
		for _, z := range zs {
			h.cnt[ci][z]--
			if h.cnt[ci][z] == 0 {
				h.remove[ci][z] = true
				h.enqueue(ci)
			}
		}
	}
}
