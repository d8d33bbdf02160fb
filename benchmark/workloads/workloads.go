// Package workloads holds the benchmark's frozen inputs: the exact query
// texts every workload runs. They were copied from internal/queries (the
// paper's L/D/B analogues) when the benchmark was defined, so a later edit
// there cannot silently change the ruler. Nothing here may be renamed or
// reworded once numbers have been recorded against it.
package workloads

// Query is one read: a stable identifier (metrics are grouped by it) and
// the SPARQL text sent verbatim.
type Query struct {
	ID   string
	Text string
}

// PruneBound are selective queries — cyclic cores, constant-anchored and
// provably empty ones — whose cost is the SOI fixpoint and the pruning
// pass, with tiny results the join engine barely sees.
var PruneBound = []Query{
	{"L0", `SELECT * WHERE {
  ?student <ub:advisor> ?professor .
  ?professor <ub:teacherOf> ?course .
  ?student <ub:teachingAssistantOf> ?course .
  OPTIONAL { ?student <ub:memberOf> ?department . } }`},
	{"L3", `SELECT * WHERE {
  ?head <ub:headOf> <dept0.univ0> .
  ?head <ub:doctoralDegreeFrom> ?university .
  OPTIONAL { ?head <ub:emailAddress> ?email . } }`},
	{"L4", `SELECT * WHERE {
  ?student <ub:memberOf> <dept1.univ0> .
  ?student <ub:advisor> ?professor .
  OPTIONAL { ?student <ub:takesCourse> ?course . } }`},
	{"L5", `SELECT * WHERE {
  ?professor <ub:worksFor> <dept0.univ1> .
  ?professor <ub:teacherOf> ?course .
  OPTIONAL { ?ta <ub:teachingAssistantOf> ?course . } }`},
	{"B0", `SELECT * WHERE {
  ?film <dbo:award> <award11> .
  ?film <dbo:director> ?director .
  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
	{"B16", `SELECT * WHERE {
  <place0> <dbo:capital> ?capital .
  ?capital <dbo:locatedIn> ?region . }`},
	{"D1", `SELECT * WHERE {
  ?film <dbo:director> ?director .
  ?director <dbo:capital> ?capital .
  OPTIONAL { ?film <dbo:genre> ?genre . } }`},
	{"B4", `SELECT * WHERE {
  ?x <dbo:capital> ?capital .
  ?capital <dbo:genre> ?genre . }`},
	{"B5", `SELECT * WHERE {
  ?person <dbo:award> ?award .
  ?award <dbo:director> ?x . }`},
	{"B15", `SELECT * WHERE {
  ?film <dbo:genre> ?genre .
  ?genre <dbo:award> ?award . }`},
	{"D2", `SELECT * WHERE {
  ?film <dbo:award> <award0> .
  ?film <dbo:director> ?director .
  OPTIONAL { ?director <dbo:award> ?personalAward . } }`},
}

// JoinBound are low-selectivity queries with 10^4–10^5-row results, so
// scans, extends, hash joins, row keys and dedup dominate. R0–R2 are
// relationship queries in the style of "Fast In-Memory SQL Analytics on
// Graphs": two-hop self-joins through a shared neighbour.
var JoinBound = []Query{
	{"L2", `SELECT * WHERE {
  ?student <ub:memberOf> ?department .
  ?professor <ub:worksFor> ?department .
  ?student <ub:advisor> ?professor .
  OPTIONAL { ?student <ub:undergraduateDegreeFrom> ?university . } }`},
	{"D0", `SELECT * WHERE {
  ?film <dbo:director> ?director .
  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
	{"D4", `SELECT * WHERE {
  ?film <dbo:starring> ?actor .
  ?film <dbo:genre> ?genre .
  OPTIONAL { ?actor <dbo:birthPlace> ?place . } }`},
	{"D5", `SELECT * WHERE {
  ?person <dbo:birthPlace> ?place .
  ?place <dbo:locatedIn> ?region .
  OPTIONAL { ?person <dbo:award> ?award . } }`},
	{"B2", `SELECT * WHERE {
  ?film <dbo:starring> ?actor .
  ?actor <dbo:birthPlace> ?place .
  ?film <dbo:genre> ?genre . }`},
	{"B3", `SELECT * WHERE {
  ?film <dbo:director> ?director .
  ?film <dbo:starring> ?actor .
  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
	{"B14", `SELECT * WHERE {
  ?film <dbo:starring> ?a .
  ?film <dbo:starring> ?b .
  ?film <dbo:genre> ?genre . }`},
	{"B17", `SELECT * WHERE {
  ?film <dbo:starring> ?actor .
  ?actor <dbo:birthPlace> ?place .
  ?place <dbo:locatedIn> ?region .
  OPTIONAL { ?actor <dbo:award> ?award . } }`},
	// Co-authors of a publication.
	{"R0", `SELECT * WHERE {
  ?publication <ub:publicationAuthor> ?a .
  ?publication <ub:publicationAuthor> ?b . }`},
	// Students sharing a graduate course.
	{"R1", `SELECT * WHERE {
  ?course <rdf:type> <ub:GraduateCourse> .
  ?s1 <ub:takesCourse> ?course .
  ?s2 <ub:takesCourse> ?course . }`},
	// Films sharing a director.
	{"R2", `SELECT * WHERE {
  ?f1 <dbo:director> ?director .
  ?f2 <dbo:director> ?director . }`},
}

// Template is a parameterised read: Text holds one %s that serve_mixed
// fills with a Zipf-chosen constant of the named Param kind, which makes
// the set of distinct texts larger than the plan cache.
type Template struct {
	ID    string
	Param string // "dept" or "award"
	Text  string
}

// Templates are L3/L4/L5/B0 with their anchoring constant left open.
var Templates = []Template{
	{"L3t", "dept", `SELECT * WHERE {
  ?head <ub:headOf> <%s> .
  ?head <ub:doctoralDegreeFrom> ?university .
  OPTIONAL { ?head <ub:emailAddress> ?email . } }`},
	{"L4t", "dept", `SELECT * WHERE {
  ?student <ub:memberOf> <%s> .
  ?student <ub:advisor> ?professor .
  OPTIONAL { ?student <ub:takesCourse> ?course . } }`},
	{"L5t", "dept", `SELECT * WHERE {
  ?professor <ub:worksFor> <%s> .
  ?professor <ub:teacherOf> ?course .
  OPTIONAL { ?ta <ub:teachingAssistantOf> ?course . } }`},
	{"B0t", "award", `SELECT * WHERE {
  ?film <dbo:award> <%s> .
  ?film <dbo:director> ?director .
  OPTIONAL { ?director <dbo:birthPlace> ?place . } }`},
}

// Union is a top-level UNION query for route_union. Gather says whether
// one of its branches mentions predicates of both shards of a 2-way
// predicate-hash partition (the router must then export and join the
// slices itself); otherwise every branch is pushed down to one shard.
// The harness re-derives this from cluster.ShardOf at set-up and refuses
// to run if a text no longer matches its flag.
type Union struct {
	ID     string
	Gather bool
	Text   string
}

// Unions are built from branches of the two sets above.
var Unions = []Union{
	{"U0", false, `SELECT * WHERE {
  { ?film <dbo:director> ?director . ?film <dbo:starring> ?actor . }
  UNION
  { ?person <dbo:birthPlace> ?place . ?person <dbo:almaMater> ?org . } }`},
	{"U1", false, `SELECT * WHERE {
  { ?publication <ub:publicationAuthor> ?a . ?publication <ub:publicationAuthor> ?b . }
  UNION
  { ?professor <ub:worksFor> ?department . ?professor <ub:teacherOf> ?course . } }`},
	{"U2", false, `SELECT * WHERE {
  { ?film <dbo:director> ?director . OPTIONAL { ?director <dbo:birthPlace> ?place . } }
  UNION
  { ?person <dbo:spouse> ?spouse . ?spouse <dbo:employer> ?org . } }`},
	{"U3", false, `SELECT * WHERE {
  { ?country <dbo:capital> ?capital . ?capital <dbo:country> ?country . }
  UNION
  { ?film <dbo:writer> ?writer . ?writer <dbo:award> ?award . OPTIONAL { ?writer <dbo:spouse> ?spouse . } } }`},
	{"U4", true, `SELECT * WHERE {
  { ?student <ub:advisor> ?professor . ?professor <ub:teacherOf> ?course . ?student <ub:teachingAssistantOf> ?course . }
  UNION
  { ?student <ub:advisor> ?professor . ?student <ub:degreeFrom> ?university . } }`},
	{"U5", true, `SELECT * WHERE {
  { ?person <dbo:birthPlace> ?place . ?place <dbo:locatedIn> ?region . }
  UNION
  { ?person <dbo:deathPlace> ?place . ?place <dbo:locatedIn> ?region . } }`},
	{"U6", true, `SELECT * WHERE {
  { ?film <dbo:award> <award0> . ?film <dbo:director> ?director . }
  UNION
  { ?film <dbo:award> <award0> . ?film <dbo:genre> ?genre . } }`},
	{"U7", true, `SELECT * WHERE {
  { ?person <dbo:employer> ?org . ?org <dbo:foundedBy> ?founder . }
  UNION
  { ?person <dbo:almaMater> ?org . ?org <dbo:foundedBy> ?founder . } }`},
}
