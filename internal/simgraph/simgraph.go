// Package simgraph builds the alarm-similarity graph of §2.1.2: given each
// alarm's set of traffic-unit ids, it weights every pair of alarms with
// intersecting traffic (Simpson / Jaccard / Constant) and assembles the
// weighted graph that community mining runs on.
//
// One code path runs at every worker count, and its output is
// byte-identical at every worker count:
//
//  1. index (sequential): the sets become a flat CSR (compressed sparse
//     row) inverted index over the dense id space — for every id, the
//     ascending list of alarms whose set holds it;
//  2. count (one shard per worker, parallel.Shards): shard s owns the ids
//     u with u % shards == s and counts the alarm pairs co-occurring on
//     them into a private map;
//  3. merge + sort (sequential): per-shard pair counts are summed — integer
//     addition, so the merged counts are independent of the shard count —
//     and the pairs sorted into the one canonical order;
//  4. weigh (parallel over contiguous pair ranges): edge weights are
//     computed into slots aligned with the sorted pairs;
//  5. insert (sequential): edges at or above MinSimilarity are inserted in
//     sorted-pair order, so the graph's floating-point weight accumulation —
//     and therefore Louvain's modularity comparisons downstream — never
//     depends on the worker count.
//
// Workers == 1 runs every stage inline on the calling goroutine.
package simgraph

import (
	"context"
	"fmt"
	"slices"

	"mawilab/internal/graphx"
	"mawilab/internal/parallel"
)

// Measure selects the edge-weight similarity between two alarms' traffic
// sets. The paper evaluates three and retains Simpson.
type Measure uint8

// The three similarity measures of the paper.
const (
	// Simpson is |E1∩E2| / min(|E1|,|E2|): 1 when one alarm's traffic is
	// contained in the other's.
	Simpson Measure = iota
	// Jaccard is |E1∩E2| / |E1∪E2|.
	Jaccard
	// Constant weights every intersecting pair 1.
	Constant
)

// String names the measure.
func (m Measure) String() string {
	switch m {
	case Simpson:
		return "simpson"
	case Jaccard:
		return "jaccard"
	case Constant:
		return "constant"
	default:
		return fmt.Sprintf("measure(%d)", uint8(m))
	}
}

// Set is one alarm's traffic: ascending, duplicate-free, non-negative
// traffic-unit ids — positions in the shared trace index (packet indices or
// flow-table ids, depending on granularity). The ids should be dense: the
// inverted index spans [0, largest id].
type Set = []int

// Config parameterizes the similarity-graph build.
type Config struct {
	// Measure of edge weight; the paper retains Simpson.
	Measure Measure
	// MinSimilarity discards edges below this weight, discriminating alarms
	// with an irrelevant amount of traffic in common. An edge is kept when
	// its weight is >= MinSimilarity and > 0; zero keeps every intersecting
	// pair.
	MinSimilarity float64
	// Workers bounds the shard fan-out; <= 0 uses every core, 1 runs
	// inline. The graph is identical at every setting.
	Workers int
}

// pair packs an alarm-index pair a < b into one word: a in the high 32 bits.
// Unsigned integer order on the packed value is exactly lexicographic
// (a, b) order, and the single-word key keeps the intersection maps on the
// runtime's fast 64-bit hash path.
type pair uint64

func packPair(a, b int32) pair    { return pair(uint64(uint32(a))<<32 | uint64(uint32(b))) }
func (p pair) unpack() (a, b int) { return int(p >> 32), int(uint32(p)) }

// Build constructs the similarity graph over len(sets) alarms: node i is
// alarm i, and intersecting alarms are connected with the configured
// similarity weight. Every set must be ascending, duplicate-free and
// non-negative (see Set). The result is byte-identical at every
// Config.Workers.
func Build(ctx context.Context, sets []Set, cfg Config) (*graphx.Graph, error) {
	if cfg.MinSimilarity < 0 || cfg.MinSimilarity > 1 {
		return nil, fmt.Errorf("simgraph: MinSimilarity %f out of [0,1]", cfg.MinSimilarity)
	}
	switch cfg.Measure {
	case Simpson, Jaccard, Constant:
	default:
		return nil, fmt.Errorf("simgraph: unknown measure %d", cfg.Measure)
	}

	g := graphx.New(len(sets))
	pairs, counts, err := intersections(ctx, sets, cfg.Workers)
	if err != nil {
		return nil, err
	}
	weights, err := weigh(ctx, sets, pairs, counts, cfg)
	if err != nil {
		return nil, err
	}
	// Sequential insert in sorted pair order: the graph's total weight is a
	// float accumulator, so insertion order must not vary with Workers.
	edges := make([]graphx.Edge, 0, len(pairs))
	for i, pr := range pairs {
		if w := weights[i]; w >= cfg.MinSimilarity && w > 0 {
			a, b := pr.unpack()
			edges = append(edges, graphx.Edge{U: a, V: b, W: w})
		}
	}
	g.AddEdges(edges)
	return g, nil
}

// intersections returns every alarm pair with intersecting traffic and the
// intersection cardinality, in sorted pair order. The pair counting is
// sharded by id residue; the shard maps are then summed, which is exact
// integer arithmetic, so the result is independent of the shard count.
func intersections(ctx context.Context, sets []Set, workers int) ([]pair, []int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Stage 1: CSR inverted index. off[u] first counts id u's owners, the
	// prefix sums turn it into the end of u's run in owners, and filling
	// the runs back to front — alarms in descending order — leaves off[u]
	// at the start of the run with every run ascending.
	universe, total := 0, 0
	for _, s := range sets {
		if len(s) > 0 {
			universe = max(universe, s[len(s)-1]+1)
		}
		total += len(s)
	}
	off := make([]int, universe+1)
	for _, s := range sets {
		for _, u := range s {
			off[u]++
		}
	}
	for u := 1; u <= universe; u++ {
		off[u] += off[u-1]
	}
	owners := make([]int32, total)
	for i := len(sets) - 1; i >= 0; i-- {
		for _, u := range sets[i] {
			off[u]--
			owners[off[u]] = int32(i)
		}
	}

	// Stage 2: per-shard pair counts. Owner runs are ascending, so
	// packPair's a < b invariant holds without a swap.
	shardCounts, err := parallel.Shards(ctx, workers, func(_ context.Context, shard, shards int) (map[pair]int, error) {
		inter := make(map[pair]int)
		for u := shard; u < universe; u += shards {
			run := owners[off[u]:off[u+1]]
			for x, a := range run {
				for _, b := range run[x+1:] {
					inter[packPair(a, b)]++
				}
			}
		}
		return inter, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Stage 3: merge (integer sums — shard-count invariant) and sort into
	// the canonical pair order every downstream float accumulation uses
	// (packed order == lexicographic (a, b) order).
	merged := shardCounts[0]
	for _, m := range shardCounts[1:] {
		for pr, n := range m {
			merged[pr] += n
		}
	}
	pairs := make([]pair, 0, len(merged))
	for pr := range merged {
		pairs = append(pairs, pr)
	}
	slices.Sort(pairs)
	counts := make([]int, len(pairs))
	for i, pr := range pairs {
		counts[i] = merged[pr]
	}
	return pairs, counts, nil
}

// weigh computes the similarity weight of every sorted pair into a slot
// aligned with it, fanning contiguous pair ranges out across the pool. Each
// weight is a pure function of one pair, so slot order — not goroutine
// schedule — fixes the result.
func weigh(ctx context.Context, sets []Set, pairs []pair, counts []int, cfg Config) ([]float64, error) {
	weights := make([]float64, len(pairs))
	err := parallel.ForEachRange(ctx, len(pairs), cfg.Workers, func(_ context.Context, lo, hi int) error {
		for i := lo; i < hi; i++ {
			n := counts[i]
			if n == 0 {
				continue
			}
			a, b := pairs[i].unpack()
			sa, sb := len(sets[a]), len(sets[b])
			switch cfg.Measure {
			case Simpson:
				m := sa
				if sb < m {
					m = sb
				}
				if m > 0 {
					weights[i] = float64(n) / float64(m)
				}
			case Jaccard:
				if union := sa + sb - n; union > 0 {
					weights[i] = float64(n) / float64(union)
				}
			case Constant:
				weights[i] = 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return weights, nil
}
