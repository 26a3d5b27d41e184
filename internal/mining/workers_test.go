package mining

import (
	"math"
	"testing"

	"probgraph/internal/core"
	"probgraph/internal/graph"
)

// TestFloatKernelsBitIdenticalAcrossWorkers runs every float kernel
// that reduces through internal/par at several worker counts and
// requires bit-identical results: the chunk grid, not the schedule,
// fixes the grouping of the float additions. The graph spans 16 grid
// chunks, so every worker count splits the work differently.
func TestFloatKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	g := graph.Kronecker(11, 12, 3)
	o := g.Orient(0)
	build := func(cfg core.Config) *core.PG {
		pg, err := core.Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	buildOriented := func(cfg core.Config) *core.PG {
		pg, err := core.BuildOriented(o, g.SizeBits(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	bf := build(core.Config{Kind: core.BF, Budget: 0.33, Seed: 3})
	kh := build(core.Config{Kind: core.KHash, Budget: 0.33, Seed: 3})
	obf := buildOriented(core.Config{Kind: core.BF, Budget: 0.33, Seed: 5})
	o1h := buildOriented(core.Config{Kind: core.OneHash, Budget: 0.33, Seed: 5, StoreElems: true})
	kclique := func(k int) func(int) float64 {
		return func(w int) float64 {
			v, err := PGKClique(o, obf, k, w)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	for _, tc := range []struct {
		name string
		run  func(workers int) float64
	}{
		{"PGTC/BF", func(w int) float64 { return PGTC(g, bf, w) }},
		{"PGTC/kH", func(w int) float64 { return PGTC(g, kh, w) }},
		{"PGLocalClusteringCoefficient", func(w int) float64 { return PGLocalClusteringCoefficient(g, bf, w) }},
		{"LocalClusteringCoefficient", func(w int) float64 { return LocalClusteringCoefficient(g, w) }},
		{"PG4Clique/BF", func(w int) float64 { return PG4Clique(o, obf, w) }},
		{"PG4Clique/1H-sampled", func(w int) float64 { return PG4Clique(o, o1h, w) }},
		{"PGKClique/k4", kclique(4)},
		{"PGKClique/k5", kclique(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(1)
			if want == 0 || math.IsNaN(want) {
				t.Fatalf("degenerate 1-worker result %v", want)
			}
			for _, w := range []int{2, 3, 8} {
				if got := tc.run(w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers=%d: %v differs from the 1-worker %v", w, got, want)
				}
			}
		})
	}
}
