package main

import (
	"math"
	"math/rand/v2"

	"probgraph/internal/graph"
)

// newRand returns the generator of one input stream; stream separates
// the independent inputs drawn from one workload seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Input stream identifiers.
const (
	streamGraph = iota + 1
	streamQueries
	streamIngest
	streamProbe
)

// kronEdges draws a Graph500-style Kronecker (R-MAT a=0.57, b=c=0.19)
// edge list over 2^scale vertices with edgeFactor·2^scale draws. Self
// loops and duplicates are left in: the program under test must drop
// them. Low vertex ids are the hubs.
func kronEdges(scale, edgeFactor int, seed uint64) (int, []graph.Edge) {
	const a, b, c = 0.57, 0.19, 0.19
	r := newRand(seed, streamGraph)
	n := 1 << scale
	edges := make([]graph.Edge, edgeFactor*n)
	for i := range edges {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			switch p := r.Float64(); {
			case p < a:
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	return n, edges
}

// zipfPicker draws vertex ids in [0, n): Zipf(s) over ids when s > 1
// (id 0 hottest), uniform otherwise.
type zipfPicker struct {
	r    *rand.Rand
	n    int
	zipf *rand.Zipf
}

func newPicker(r *rand.Rand, n int, s float64) *zipfPicker {
	p := &zipfPicker{r: r, n: n}
	if s > 1 {
		p.zipf = rand.NewZipf(r, s, 1, uint64(n-1))
	}
	return p
}

func (p *zipfPicker) pick() uint32 {
	if p.zipf != nil {
		return uint32(p.zipf.Uint64())
	}
	return uint32(p.r.IntN(p.n))
}

// query is one generated request in wire terms.
type query struct {
	op   string // similarity, localtc, neighbors, topk
	u, v uint32
	k    int
}

// mixEntry weights one operation of a query mix.
type mixEntry struct {
	op string
	w  float64
}

var (
	// defaultMix is serve.DefaultMix in wire names.
	defaultMix = []mixEntry{{"similarity", 6}, {"localtc", 2}, {"neighbors", 1}, {"topk", 1}}
	// churnMix is defaultMix with topk at a quarter weight. Under churn
	// every topk misses the cache and costs several times a similarity,
	// so at full weight the topk share (10%) puts the p90 right on the
	// boundary between the two latency modes, where it jumps from run to
	// run; at 2.5% the p90 reads the common miss and topk shows in the
	// p99.
	churnMix = []mixEntry{{"similarity", 6}, {"localtc", 2}, {"neighbors", 1}, {"topk", 0.25}}
	// coldMix leans on the expensive point queries.
	coldMix = []mixEntry{{"topk", 3}, {"localtc", 4}, {"similarity", 2}, {"neighbors", 1}}
)

// genQueries draws count queries from the mix with the picker's vertex
// distribution.
func genQueries(seed uint64, count, n int, zipf float64, mix []mixEntry) []query {
	r := newRand(seed, streamQueries)
	p := newPicker(r, n, zipf)
	var total float64
	for _, m := range mix {
		total += m.w
	}
	qs := make([]query, count)
	for i := range qs {
		x := r.Float64() * total
		op := mix[len(mix)-1].op
		for _, m := range mix {
			if x < m.w {
				op = m.op
				break
			}
			x -= m.w
		}
		q := query{op: op, u: p.pick()}
		switch op {
		case "similarity":
			q.v = p.pick()
		case "topk":
			q.k = 10
		}
		qs[i] = q
	}
	return qs
}

// edgeModel is the benchmark's own model of a mutable edge set: sorted
// adjacency plus an indexable edge list for uniform deletions.
type edgeModel struct {
	adj   []map[uint32]struct{}
	list  []graph.Edge       // every present edge once, U < V
	index map[graph.Edge]int // edge → position in list
}

func newEdgeModel(n int, edges []graph.Edge) *edgeModel {
	m := &edgeModel{adj: make([]map[uint32]struct{}, n), index: make(map[graph.Edge]int, len(edges))}
	for v := range m.adj {
		m.adj[v] = map[uint32]struct{}{}
	}
	for _, e := range edges {
		m.add(e)
	}
	return m
}

func norm(e graph.Edge) graph.Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

func (m *edgeModel) has(e graph.Edge) bool {
	_, ok := m.index[norm(e)]
	return ok
}

func (m *edgeModel) add(e graph.Edge) bool {
	e = norm(e)
	if e.U == e.V || m.has(e) {
		return false
	}
	m.index[e] = len(m.list)
	m.list = append(m.list, e)
	m.adj[e.U][e.V] = struct{}{}
	m.adj[e.V][e.U] = struct{}{}
	return true
}

func (m *edgeModel) remove(e graph.Edge) bool {
	e = norm(e)
	i, ok := m.index[e]
	if !ok {
		return false
	}
	last := m.list[len(m.list)-1]
	m.list[i] = last
	m.index[last] = i
	m.list = m.list[:len(m.list)-1]
	delete(m.index, e)
	delete(m.adj[e.U], e.V)
	delete(m.adj[e.V], e.U)
	return true
}

// batchGen draws ingest batches against the model, applying each batch
// to the model as it is drawn: adds are absent edges between existing
// vertices (hub-biased, like the base graph), deletes are uniform
// present edges, and the two sets are disjoint.
type batchGen struct {
	r     *rand.Rand
	m     *edgeModel
	scale int
}

func newBatchGen(seed uint64, m *edgeModel, scale int) *batchGen {
	return &batchGen{r: newRand(seed, streamIngest), m: m, scale: scale}
}

func (g *batchGen) next(nAdd, nDel int) (add, del []graph.Edge) {
	del = make([]graph.Edge, 0, nDel)
	for len(del) < nDel && len(g.m.list) > 0 {
		e := g.m.list[g.r.IntN(len(g.m.list))]
		g.m.remove(e)
		del = append(del, e)
	}
	add = make([]graph.Edge, 0, nAdd)
	for len(add) < nAdd {
		e := g.kronEdge()
		if e.U == e.V || g.m.has(e) {
			continue
		}
		// An edge deleted in this batch is not re-added by it.
		if containsEdge(del, e) {
			continue
		}
		g.m.add(e)
		add = append(add, e)
	}
	return add, del
}

func (g *batchGen) kronEdge() graph.Edge {
	var u, v uint32
	for bit := 0; bit < g.scale; bit++ {
		switch p := g.r.Float64(); {
		case p < 0.57:
		case p < 0.76:
			v |= 1 << bit
		case p < 0.95:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return norm(graph.Edge{U: u, V: v})
}

func containsEdge(es []graph.Edge, e graph.Edge) bool {
	e = norm(e)
	for _, x := range es {
		if norm(x) == e {
			return true
		}
	}
	return false
}

// relErr is |est − exact| / exact.
func relErr(est, exact float64) float64 {
	if exact == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-exact) / exact
}
