// Lubm reproduces the paper's §5.3 discussion on the LUBM-like dataset
// through the session API: the cyclic queries L0 and L1 (mandatory cores
// exactly as in Fig. 6), their SOI convergence behaviour (read off
// ExecStats.Solver), and L1's dual-simulation over-retention — leftover
// triples far exceeding the required ones, caused by the counterexample
// effect of Sect. 4.1. A deadline on the context bounds the whole
// pipeline run.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dualsim"
)

// L0: the advisor/teacher/assistant triangle of Fig. 6(a).
const queryL0 = `SELECT * WHERE {
  ?student <ub:advisor> ?professor .
  ?professor <ub:teacherOf> ?course .
  ?student <ub:teachingAssistantOf> ?course . }`

// L1: the publication constellation of Fig. 6(b).
const queryL1 = `SELECT * WHERE {
  ?publication <rdf:type> <ub:Publication> .
  ?publication <ub:publicationAuthor> ?student .
  ?publication <ub:publicationAuthor> ?professor .
  ?student <ub:degreeFrom> ?university .
  ?professor <ub:worksFor> ?department .
  ?student <ub:memberOf> ?department .
  ?department <ub:subOrganizationOf> ?university . }`

func main() {
	// A generous deadline: cancellation reaches the solver's round loop
	// and the engines' join loops, so a runaway query cannot hang the
	// process.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	st, err := dualsim.GenerateLUBMStore(8, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LUBM-like store: %d triples, %d nodes, %d predicates\n\n",
		st.NumTriples(), st.NumNodes(), st.NumPreds())

	db, err := dualsim.Open(st)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for _, entry := range []struct{ id, text string }{
		{"L0 (Fig. 6a triangle)", queryL0},
		{"L1 (Fig. 6b publication cycle)", queryL1},
	} {
		pq, err := db.Prepare(entry.text)
		if err != nil {
			log.Fatal(err)
		}
		res, stats, err := pq.Exec(ctx)
		if err != nil {
			log.Fatal(err)
		}
		req, err := dualsim.RequiredTriples(st, pq.Query(), dualsim.Volcano)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s\n", entry.id)
		fmt.Printf("  prepared in %v (%d inequalities); SOI solved in %v: %d rounds, %d evaluations, %d updates\n",
			pq.PrepareStats().PlanTime.Round(time.Microsecond),
			pq.PrepareStats().Inequalities,
			stats.PruneTime().Round(time.Microsecond),
			stats.Solver.Rounds, stats.Solver.Evaluations, stats.Solver.Updates)
		fmt.Printf("  results:             %d (join %v)\n", res.Len(), stats.JoinTime().Round(time.Microsecond))
		fmt.Printf("  required triples:    %d\n", req)
		fmt.Printf("  triples aft pruning: %d (%.2f%% pruned)\n",
			stats.TriplesAfter, 100*stats.PrunedRatio())
		if req > 0 {
			fmt.Printf("  over-retention:      %.1fx\n", float64(stats.TriplesAfter)/float64(req))
		}
		fmt.Println()
	}

	fmt.Println("The L1 over-retention illustrates Sect. 4.1: dual simulation keeps")
	fmt.Println("students whose degree university and department mimic a match through")
	fmt.Println("*different* publications — non-transitive relationships appearing")
	fmt.Println("transitive under dual simulation.")
}
