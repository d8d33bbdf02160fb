package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"dualsim/internal/rdf"
	"dualsim/internal/storage"
)

// KG predicate vocabulary (the DBpedia-flavoured subset the B- and
// D-query analogues use).
const (
	KGType       = "rdf:type"
	KGDirector   = "dbo:director"
	KGStarring   = "dbo:starring"
	KGWriter     = "dbo:writer"
	KGProducer   = "dbo:producer"
	KGBirthPlace = "dbo:birthPlace"
	KGDeathPlace = "dbo:deathPlace"
	KGSpouse     = "dbo:spouse"
	KGCountry    = "dbo:country"
	KGCapital    = "dbo:capital"
	KGLocatedIn  = "dbo:locatedIn"
	KGFoundedBy  = "dbo:foundedBy"
	KGEmployer   = "dbo:employer"
	KGAward      = "dbo:award"
	KGGenre      = "dbo:genre"
	KGLanguage   = "dbo:language"
	KGPopulation = "dbo:populationTotal"
	KGName       = "foaf:name"
	KGInfluenced = "dbo:influencedBy"
	KGAlmaMater  = "dbo:almaMater"
)

// KG class IRIs.
const (
	KGClassFilm   = "dbo:Film"
	KGClassPerson = "dbo:Person"
	KGClassPlace  = "dbo:Place"
	KGClassOrg    = "dbo:Organisation"
	KGClassAward  = "dbo:Award"
	KGClassGenre  = "dbo:Genre"
)

// KGConfig scales the knowledge-graph generator.
type KGConfig struct {
	Films  int
	People int
	Places int
	Orgs   int
	Seed   int64
	// NoisePreds adds a heavy Zipfian tail of rare predicates, matching
	// DBpedia's 65k-predicate long tail (99% of DBpedia predicates store
	// <1 MB, §5.1).
	NoisePreds int
}

// DefaultKG returns the laptop-scale configuration used by the experiment
// harness; scale multiplies entity counts.
func DefaultKG(scale int, seed int64) KGConfig {
	if scale < 1 {
		scale = 1
	}
	return KGConfig{
		Films:      400 * scale,
		People:     800 * scale,
		Places:     150 * scale,
		Orgs:       100 * scale,
		Seed:       seed,
		NoisePreds: 60,
	}
}

// KG generates the DBpedia-like dataset as triples.
func KG(cfg KGConfig) []rdf.Triple {
	g := &kgGen{r: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	g.run()
	return g.out
}

// KGStore generates and loads the dataset in one step.
func KGStore(cfg KGConfig) (*storage.Store, error) {
	return storage.FromTriples(KG(cfg))
}

type kgGen struct {
	r   *rand.Rand
	cfg KGConfig
	out []rdf.Triple

	films, people, places, orgs, awards, genres []string
}

func (g *kgGen) emit(s, p, o string)      { g.out = append(g.out, rdf.T(s, p, o)) }
func (g *kgGen) emitLit(s, p, lit string) { g.out = append(g.out, rdf.TL(s, p, lit)) }

// zipf draws an index in [0, n) with a Zipf-like skew: a few entities are
// very popular (famous directors, big countries), most are rare.
func (g *kgGen) zipf(n int) int {
	if n <= 1 {
		return 0
	}
	u := g.r.Float64()
	i := int(math.Pow(u, 2.2) * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func (g *kgGen) run() {
	c := g.cfg
	g.films = names("film", c.Films)
	g.people = names("person", c.People)
	g.places = names("place", c.Places)
	g.orgs = names("org", c.Orgs)
	g.awards = names("award", 12)
	g.genres = names("genre", 15)

	for _, a := range g.awards {
		g.emit(a, KGType, KGClassAward)
	}
	for _, gn := range g.genres {
		g.emit(gn, KGType, KGClassGenre)
	}
	g.placeLayer()
	g.peopleLayer()
	g.filmLayer()
	g.orgLayer()
	g.noiseLayer()
}

func (g *kgGen) placeLayer() {
	for i, p := range g.places {
		g.emit(p, KGType, KGClassPlace)
		g.emitLit(p, KGName, p)
		g.emitLit(p, KGPopulation, fmt.Sprintf("%d", 1000+g.r.Intn(5_000_000)))
		// Hierarchy: place i is located in some earlier (bigger) place.
		if i > 0 {
			g.emit(p, KGLocatedIn, g.places[g.zipf(i)])
		}
		// The first tenth are countries with capitals.
		if i < len(g.places)/10+1 && i+1 < len(g.places) {
			g.emit(p, KGCapital, g.places[i+1])
			g.emit(g.places[i+1], KGCountry, p)
		}
	}
}

func (g *kgGen) peopleLayer() {
	for i, p := range g.people {
		g.emit(p, KGType, KGClassPerson)
		g.emitLit(p, KGName, p)
		g.emit(p, KGBirthPlace, g.places[g.zipf(len(g.places))])
		if g.r.Intn(4) == 0 {
			g.emit(p, KGDeathPlace, g.places[g.zipf(len(g.places))])
		}
		if g.r.Intn(3) == 0 {
			g.emit(p, KGSpouse, g.people[g.zipf(len(g.people))])
		}
		if g.r.Intn(5) == 0 && i > 0 {
			g.emit(p, KGInfluenced, g.people[g.zipf(i)])
		}
		if g.r.Intn(6) == 0 {
			g.emit(p, KGAward, g.awards[g.zipf(len(g.awards))])
		}
	}
}

func (g *kgGen) filmLayer() {
	directors := g.people[:len(g.people)/6+1] // a minority directs
	writers := g.people[:len(g.people)/4+1]
	for _, f := range g.films {
		g.emit(f, KGType, KGClassFilm)
		g.emitLit(f, KGName, f)
		d := directors[g.zipf(len(directors))]
		g.emit(f, KGDirector, d)
		for _, s := range pick(g.r, g.people, 2, 5) {
			g.emit(f, KGStarring, s)
		}
		if g.r.Intn(2) == 0 {
			g.emit(f, KGWriter, writers[g.zipf(len(writers))])
		}
		if g.r.Intn(3) == 0 {
			g.emit(f, KGProducer, g.people[g.zipf(len(g.people))])
		}
		g.emit(f, KGGenre, g.genres[g.zipf(len(g.genres))])
		g.emitLit(f, KGLanguage, []string{"en", "de", "fr", "es", "ja"}[g.zipf(5)])
		if g.r.Intn(8) == 0 {
			g.emit(f, KGAward, g.awards[g.zipf(len(g.awards))])
		}
	}
}

func (g *kgGen) orgLayer() {
	for _, o := range g.orgs {
		g.emit(o, KGType, KGClassOrg)
		g.emitLit(o, KGName, o)
		g.emit(o, KGLocatedIn, g.places[g.zipf(len(g.places))])
		g.emit(o, KGFoundedBy, g.people[g.zipf(len(g.people))])
		for _, p := range pick(g.r, g.people, 1, 6) {
			g.emit(p, KGEmployer, o)
		}
	}
	// A sparse almaMater layer connecting people to organisations.
	for _, p := range g.people {
		if g.r.Intn(3) == 0 {
			g.emit(p, KGAlmaMater, g.orgs[g.zipf(len(g.orgs))])
		}
	}
}

// noiseLayer adds the long tail of rare predicates.
func (g *kgGen) noiseLayer() {
	for i := 0; i < g.cfg.NoisePreds; i++ {
		pred := fmt.Sprintf("dbp:rare%d", i)
		uses := 1 + g.r.Intn(6)
		for j := 0; j < uses; j++ {
			g.emit(g.people[g.r.Intn(len(g.people))], pred, g.places[g.r.Intn(len(g.places))])
		}
	}
}
