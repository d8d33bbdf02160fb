// Package queries ships the evaluation workload: analogues of the three
// query sets of the paper's Sect. 5 — L0–L5 (LUBM, optional-heavy, after
// Atre [4]), D0–D5 (DBpedia, after Atre [4]) and B0–B19 (the DBpedia
// SPARQL benchmark of Morsey et al. [23]) — plus the paper's running
// examples (X1), (X2), (X3).
//
// The exact query texts of the original sets are not printed in the
// paper; each analogue reproduces the *documented shape* of its original
// (cyclic/acyclic mandatory core, OPTIONAL usage, constants, empty/huge
// result sets, selectivity class) against the datasets of
// internal/datagen. The mandatory cores of L0 and L1 encode Fig. 6(a) and
// Fig. 6(b) verbatim. DESIGN.md records this substitution.
package queries

import (
	"fmt"

	"dualsim/internal/sparql"
)

// Spec is one benchmark query with its documented shape properties.
type Spec struct {
	ID      string // paper identifier: L0…L5, D0…D5, B0…B19
	Dataset string // "lubm" or "kg"
	Text    string // concrete syntax (parse with sparql.Parse)

	// Shape notes from the paper, asserted by tests.
	Cyclic      bool // the mandatory core contains a cycle
	HasOptional bool
	ExpectEmpty bool // the paper reports an empty result set
}

// Query parses the spec's text (panics on error — specs are fixtures).
func (s Spec) Query() *sparql.Query { return sparql.MustParse(s.Text) }

// LUBMQueries returns L0–L5.
func LUBMQueries() []Spec {
	return []Spec{
		{
			ID: "L0", Dataset: "lubm", Cyclic: true, HasOptional: true,
			// Fig. 6(a): the advisor/teacher/assistant triangle.
			Text: `SELECT * WHERE {
			  ?student <ub:advisor> ?professor .
			  ?professor <ub:teacherOf> ?course .
			  ?student <ub:teachingAssistantOf> ?course .
			  OPTIONAL { ?student <ub:memberOf> ?department . } }`,
		},
		{
			ID: "L1", Dataset: "lubm", Cyclic: true, HasOptional: true,
			// Fig. 6(b): publications with a student and a professor
			// author, the student a member of the professor's department,
			// which belongs to the university the student's degree is
			// from.
			Text: `SELECT * WHERE {
			  ?publication <rdf:type> <ub:Publication> .
			  ?publication <ub:publicationAuthor> ?student .
			  ?publication <ub:publicationAuthor> ?professor .
			  ?student <ub:degreeFrom> ?university .
			  ?professor <ub:worksFor> ?department .
			  ?student <ub:memberOf> ?department .
			  ?department <ub:subOrganizationOf> ?university .
			  OPTIONAL { ?professor <ub:emailAddress> ?email . } }`,
		},
		{
			ID: "L2", Dataset: "lubm", Cyclic: true, HasOptional: true,
			// Low-selectivity department triangle: huge result set.
			Text: `SELECT * WHERE {
			  ?student <ub:memberOf> ?department .
			  ?professor <ub:worksFor> ?department .
			  ?student <ub:advisor> ?professor .
			  OPTIONAL { ?student <ub:undergraduateDegreeFrom> ?university . } }`,
		},
		{
			ID: "L3", Dataset: "lubm", HasOptional: true,
			// Constant-anchored, highly selective.
			Text: `SELECT * WHERE {
			  ?head <ub:headOf> <dept0.univ0> .
			  ?head <ub:doctoralDegreeFrom> ?university .
			  OPTIONAL { ?head <ub:emailAddress> ?email . } }`,
		},
		{
			ID: "L4", Dataset: "lubm", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?student <ub:memberOf> <dept1.univ0> .
			  ?student <ub:advisor> ?professor .
			  OPTIONAL { ?student <ub:takesCourse> ?course . } }`,
		},
		{
			ID: "L5", Dataset: "lubm", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?professor <ub:worksFor> <dept0.univ1> .
			  ?professor <ub:teacherOf> ?course .
			  OPTIONAL { ?ta <ub:teachingAssistantOf> ?course . } }`,
		},
	}
}

// DBpediaQueries returns D0–D5 (the optional-heavy Atre set).
func DBpediaQueries() []Spec {
	return []Spec{
		{
			ID: "D0", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:director> ?director .
			  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`,
		},
		{
			ID: "D1", Dataset: "kg", HasOptional: true, ExpectEmpty: true,
			// Directors are people; people have no capitals.
			Text: `SELECT * WHERE {
			  ?film <dbo:director> ?director .
			  ?director <dbo:capital> ?capital .
			  OPTIONAL { ?film <dbo:genre> ?genre . } }`,
		},
		{
			ID: "D2", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:award> <award0> .
			  ?film <dbo:director> ?director .
			  OPTIONAL { ?director <dbo:award> ?personalAward . } }`,
		},
		{
			ID: "D3", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?person <dbo:employer> ?org .
			  OPTIONAL { ?person <dbo:spouse> ?spouse . } }`,
		},
		{
			ID: "D4", Dataset: "kg", HasOptional: true,
			// Low-selectivity star with a huge result set.
			Text: `SELECT * WHERE {
			  ?film <dbo:starring> ?actor .
			  ?film <dbo:genre> ?genre .
			  OPTIONAL { ?actor <dbo:birthPlace> ?place . } }`,
		},
		{
			ID: "D5", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?person <dbo:birthPlace> ?place .
			  ?place <dbo:locatedIn> ?region .
			  OPTIONAL { ?person <dbo:award> ?award . } }`,
		},
	}
}

// BenchmarkQueries returns B0–B19 (the Morsey et al. benchmark
// analogues; Table 2 strips their OPTIONAL parts via StripOptional).
func BenchmarkQueries() []Spec {
	return []Spec{
		{ID: "B0", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:award> <award11> .
			  ?film <dbo:director> ?director .
			  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
		{ID: "B1", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:birthPlace> ?place .
			  ?place <dbo:locatedIn> ?region . }`},
		{ID: "B2", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?film <dbo:starring> ?actor .
			  ?actor <dbo:birthPlace> ?place .
			  ?film <dbo:genre> ?genre . }`},
		{ID: "B3", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:director> ?director .
			  ?film <dbo:starring> ?actor .
			  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
		{ID: "B4", Dataset: "kg", ExpectEmpty: true,
			// Capitals have no genre.
			Text: `SELECT * WHERE {
			  ?x <dbo:capital> ?capital .
			  ?capital <dbo:genre> ?genre . }`},
		{ID: "B5", Dataset: "kg", ExpectEmpty: true,
			// Awards direct nothing.
			Text: `SELECT * WHERE {
			  ?person <dbo:award> ?award .
			  ?award <dbo:director> ?x . }`},
		{ID: "B6", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:employer> ?org .
			  ?person <dbo:birthPlace> ?place .
			  ?org <dbo:locatedIn> ?region . }`},
		{ID: "B7", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:writer> ?writer .
			  ?writer <dbo:award> ?award .
			  OPTIONAL { ?writer <dbo:spouse> ?spouse . } }`},
		{ID: "B8", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:influencedBy> ?influence .
			  ?influence <dbo:award> ?award . }`},
		{ID: "B9", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:spouse> ?spouse .
			  ?spouse <dbo:employer> ?org . }`},
		{ID: "B10", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?film <dbo:producer> ?producer .
			  ?producer <dbo:almaMater> ?org . }`},
		{ID: "B11", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:almaMater> ?org .
			  ?org <dbo:foundedBy> ?founder . }`},
		{ID: "B12", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:employer> ?org .
			  ?org <dbo:foundedBy> ?founder . }`},
		{ID: "B13", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:starring> ?actor .
			  ?actor <dbo:spouse> ?spouse .
			  OPTIONAL { ?spouse <dbo:employer> ?org . } }`},
		{ID: "B14", Dataset: "kg",
			// The set's largest result: co-starring pairs with genre.
			Text: `SELECT * WHERE {
			  ?film <dbo:starring> ?a .
			  ?film <dbo:starring> ?b .
			  ?film <dbo:genre> ?genre . }`},
		{ID: "B15", Dataset: "kg", ExpectEmpty: true,
			// Genres win no awards.
			Text: `SELECT * WHERE {
			  ?film <dbo:genre> ?genre .
			  ?genre <dbo:award> ?award . }`},
		{ID: "B16", Dataset: "kg",
			// Constant-anchored, tiny result.
			Text: `SELECT * WHERE {
			  <place0> <dbo:capital> ?capital .
			  ?capital <dbo:locatedIn> ?region . }`},
		{ID: "B17", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:starring> ?actor .
			  ?actor <dbo:birthPlace> ?place .
			  ?place <dbo:locatedIn> ?region .
			  OPTIONAL { ?actor <dbo:award> ?award . } }`},
		{ID: "B18", Dataset: "kg",
			Text: `SELECT * WHERE {
			  ?person <dbo:award> ?award .
			  ?person <dbo:birthPlace> ?place . }`},
		{ID: "B19", Dataset: "kg", HasOptional: true,
			Text: `SELECT * WHERE {
			  ?film <dbo:genre> <genre0> .
			  ?film <dbo:starring> ?actor .
			  OPTIONAL { ?actor <dbo:spouse> ?spouse . } }`},
	}
}

// All returns every benchmark spec, L then D then B.
func All() []Spec {
	out := append(LUBMQueries(), DBpediaQueries()...)
	return append(out, BenchmarkQueries()...)
}

// ByID returns the spec with the given identifier.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("queries: unknown query id %q", id)
}

// StripOptional rewrites OPTIONAL patterns to mandatory conjunctions —
// "we have removed the SPARQL keyword OPTIONAL" (Sect. 5.2, Table 2
// preparation): `Q1 OPTIONAL {Q2}` becomes `Q1 . {Q2}`.
func StripOptional(e sparql.Expr) sparql.Expr {
	switch x := e.(type) {
	case sparql.BGP:
		return x
	case sparql.And:
		return sparql.And{L: StripOptional(x.L), R: StripOptional(x.R)}
	case sparql.Optional:
		return sparql.And{L: StripOptional(x.L), R: StripOptional(x.R)}
	case sparql.Union:
		return sparql.Union{L: StripOptional(x.L), R: StripOptional(x.R)}
	}
	return e
}

// MandatoryCore drops optional parts entirely, exposing the cores shown
// in Fig. 6.
func MandatoryCore(e sparql.Expr) sparql.Expr {
	switch x := e.(type) {
	case sparql.BGP:
		return x
	case sparql.And:
		return sparql.And{L: MandatoryCore(x.L), R: MandatoryCore(x.R)}
	case sparql.Optional:
		return MandatoryCore(x.L)
	case sparql.Union:
		return sparql.Union{L: MandatoryCore(x.L), R: MandatoryCore(x.R)}
	}
	return e
}
