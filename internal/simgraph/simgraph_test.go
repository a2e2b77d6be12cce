package simgraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mawilab/internal/graphx"
)

// syntheticSets builds a deterministic family of overlapping traffic sets:
// alarm i holds ids [i*stride, i*stride+size), so consecutive alarms overlap
// by size-stride ids and distant alarms are disjoint — a band similarity
// graph with known weights.
func syntheticSets(n, size, stride int) []Set {
	sets := make([]Set, n)
	for i := range sets {
		s := make(Set, size)
		for j := range s {
			s[j] = i*stride + j
		}
		sets[i] = s
	}
	return sets
}

// randomSets draws a sparse family of n sets over ids below maxID: about a
// sixth empty, a sixth singletons, the rest up to 40 ids mixing a shared
// pool of hot ids (spread with gaps across the whole range, so sets
// overlap) with uniformly random ones.
func randomSets(rng *rand.Rand, n, maxID int) []Set {
	hot := make([]int, 24)
	for i := range hot {
		hot[i] = rng.Intn(maxID)
	}
	sets := make([]Set, n)
	for i := range sets {
		switch rng.Intn(6) {
		case 0:
			sets[i] = Set{}
		case 1:
			sets[i] = Set{hot[rng.Intn(len(hot))]}
		default:
			s := make(Set, 1+rng.Intn(40))
			for j := range s {
				if rng.Intn(2) == 0 {
					s[j] = hot[rng.Intn(len(hot))]
				} else {
					s[j] = rng.Intn(maxID)
				}
			}
			slices.Sort(s)
			sets[i] = slices.Compact(s)
		}
	}
	return sets
}

// naiveBuild is the quadratic reference: every pair's intersection computed
// directly, inserted in pair order. Build must match it exactly.
func naiveBuild(sets []Set, cfg Config) *graphx.Graph {
	g := graphx.New(len(sets))
	for a := 0; a < len(sets); a++ {
		for b := a + 1; b < len(sets); b++ {
			n := 0
			for _, id := range sets[a] {
				if slices.Contains(sets[b], id) {
					n++
				}
			}
			if n == 0 {
				continue
			}
			var w float64
			switch cfg.Measure {
			case Simpson:
				m := len(sets[a])
				if len(sets[b]) < m {
					m = len(sets[b])
				}
				w = float64(n) / float64(m)
			case Jaccard:
				w = float64(n) / float64(len(sets[a])+len(sets[b])-n)
			case Constant:
				w = 1
			}
			if w >= cfg.MinSimilarity && w > 0 {
				g.AddEdge(a, b, w)
			}
		}
	}
	return g
}

// TestBuildMatchesNaiveReference pins Build to the quadratic reference on
// the band family and on random sparse families (empty sets, singletons,
// id gaps, ids in the thousands), for all three measures at workers 1-4.
func TestBuildMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	names := []string{"band"}
	families := [][]Set{syntheticSets(40, 30, 10)}
	for _, maxID := range []int{50, 800, 6000} {
		names = append(names, fmt.Sprintf("sparse<%d", maxID))
		families = append(families, randomSets(rng, 60, maxID))
	}
	for f, sets := range families {
		name := names[f]
		for _, m := range []Measure{Simpson, Jaccard, Constant} {
			want := naiveBuild(sets, Config{Measure: m, MinSimilarity: 0.1})
			for workers := 1; workers <= 4; workers++ {
				cfg := Config{Measure: m, MinSimilarity: 0.1, Workers: workers}
				got, err := Build(context.Background(), sets, cfg)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", name, m, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v workers=%d: build diverges from the quadratic reference (%d vs %d edges)",
						name, m, workers, got.EdgeCount(), want.EdgeCount())
				}
			}
		}
	}
}

// decodeSets turns fuzz bytes into a valid set family. A byte with the
// high bit set starts a new set (at most 64); 0x80 itself adds no id, so
// runs of it make empty sets. Every other byte adds the id that lies its
// low seven bits past the set's previous id, so sets stay strictly
// ascending and ids stay below 128 per input byte.
func decodeSets(data []byte) []Set {
	const maxSets, maxBytes = 64, 512
	data = data[:min(len(data), maxBytes)]
	var sets []Set
	next := 0
	for _, b := range data {
		if sets == nil || (b&0x80 != 0 && len(sets) < maxSets) {
			sets = append(sets, Set{})
			next = 0
		}
		if b == 0x80 {
			continue
		}
		next += int(b & 0x7f)
		sets[len(sets)-1] = append(sets[len(sets)-1], next)
		next++
	}
	return sets
}

// FuzzBuildMatchesNaive compares Build against the quadratic reference on
// fuzz-shaped set families, measures, thresholds and worker counts.
func FuzzBuildMatchesNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x81, 2, 0x80, 0x80, 0x83, 0}, byte(0), byte(25), byte(1))
	f.Add([]byte{0x80, 5, 0x85, 0x80, 0xff, 0x7f, 0x82, 1, 1, 1}, byte(1), byte(0), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, measure, minSim, workers byte) {
		sets := decodeSets(data)
		cfg := Config{Measure: Measure(measure % 3), MinSimilarity: float64(minSim) / 255, Workers: 1 + int(workers%4)}
		got, err := Build(context.Background(), sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveBuild(sets, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("build diverges from the quadratic reference (%d vs %d edges)", got.EdgeCount(), want.EdgeCount())
		}
	})
}

// TestBuildDeterminismAcrossWorkers is the package's core guarantee: the
// graph — every edge, every weight, and the float-accumulated total weight —
// is byte-identical at workers 1, 2, 4 and 8.
func TestBuildDeterminismAcrossWorkers(t *testing.T) {
	sets := syntheticSets(60, 40, 7)
	ref, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("workers=%d: graph differs from the sequential reference path", workers)
		}
		if g.TotalWeight() != ref.TotalWeight() {
			t.Fatalf("workers=%d: total weight %v != %v (float accumulation order leaked)",
				workers, g.TotalWeight(), ref.TotalWeight())
		}
		if !reflect.DeepEqual(g.Louvain(), ref.Louvain()) {
			t.Fatalf("workers=%d: Louvain assignments differ", workers)
		}
	}
}

// TestBuildMinSimilarityBoundary: an edge whose weight lands exactly on
// MinSimilarity is KEPT ("discards edges below this weight"), for all three
// measures.
func TestBuildMinSimilarityBoundary(t *testing.T) {
	// Two sets of 10 sharing exactly 5 ids: Simpson = 5/10 = 0.5,
	// Jaccard = 5/15 = 1/3, Constant = 1.
	sets := syntheticSets(2, 10, 5)
	cases := []struct {
		measure Measure
		weight  float64
	}{
		{Simpson, 0.5},
		{Jaccard, 1.0 / 3.0},
		{Constant, 1},
	}
	for _, tc := range cases {
		// Exactly at the boundary: kept.
		g, err := Build(context.Background(), sets, Config{Measure: tc.measure, MinSimilarity: tc.weight, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if g.EdgeCount() != 1 || g.Weight(0, 1) != tc.weight {
			t.Errorf("%v: edge at w == MinSimilarity == %v dropped (weight %v)", tc.measure, tc.weight, g.Weight(0, 1))
		}
		// Threshold one ulp above the weight: dropped. (Constant's weight is
		// 1, the top of MinSimilarity's domain, so it has no such setting.)
		if above := math.Nextafter(tc.weight, 2); above <= 1 {
			g, err = Build(context.Background(), sets, Config{Measure: tc.measure, MinSimilarity: above, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if g.EdgeCount() != 0 {
				t.Errorf("%v: edge below MinSimilarity survived", tc.measure)
			}
		}
	}
}

// TestBuildMinSimilarityZero: the zero threshold keeps every intersecting
// pair but never inserts weight-0 edges.
func TestBuildMinSimilarityZero(t *testing.T) {
	sets := syntheticSets(3, 10, 5) // 0-1 and 1-2 overlap; 0-2 disjoint
	g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 2 {
		t.Errorf("edges = %d, want 2 (every intersecting pair)", g.EdgeCount())
	}
	if g.Weight(0, 2) != 0 {
		t.Error("disjoint pair acquired an edge")
	}
}

func TestBuildEmptyAndSingle(t *testing.T) {
	for _, sets := range [][]Set{nil, {{}}, syntheticSets(1, 5, 1)} {
		g, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 0.1, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != len(sets) || g.EdgeCount() != 0 {
			t.Errorf("%d sets: graph n=%d edges=%d", len(sets), g.N(), g.EdgeCount())
		}
	}
}

func TestBuildBadConfig(t *testing.T) {
	sets := syntheticSets(2, 5, 1)
	if _, err := Build(context.Background(), sets, Config{Measure: Measure(99)}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: 2}); err == nil {
		t.Error("MinSimilarity > 1 accepted")
	}
	if _, err := Build(context.Background(), sets, Config{Measure: Simpson, MinSimilarity: -0.5}); err == nil {
		t.Error("negative MinSimilarity accepted")
	}
}

func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := syntheticSets(20, 20, 5)
	for _, workers := range []int{1, 4} {
		if _, err := Build(ctx, sets, Config{Measure: Simpson, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMeasureString(t *testing.T) {
	if Simpson.String() != "simpson" || Jaccard.String() != "jaccard" || Constant.String() != "constant" {
		t.Error("measure names wrong")
	}
	if Measure(7).String() != "measure(7)" {
		t.Errorf("unknown measure renders %q", Measure(7).String())
	}
}
