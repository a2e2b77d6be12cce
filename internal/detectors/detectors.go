// Package detectors defines the common contract implemented by the four
// anomaly detectors the paper combines (§3.2): PCA with sketches, the
// multiresolution Gamma model, the Hough-transform pattern detector, and
// the Kullback-Leibler histogram detector.
//
// Each detector runs unsupervised over one trace under one of its parameter
// sets ("configurations": optimal, sensitive, conservative) and reports
// core.Alarms. Detectors consume the trace through its shared columnar
// trace.Index — built once per trace and fanned out to every (detector,
// configuration) run — rather than rescanning raw packets. The similarity
// estimator is what makes their heterogeneous granularities comparable, so
// implementations are free to report hosts, flows, packets or feature
// tuples.
package detectors

import (
	"context"
	"fmt"
	"sort"

	"mawilab/internal/core"
	"mawilab/internal/parallel"
	"mawilab/internal/trace"
)

// Tuning indexes a detector's parameter sets.
type Tuning int

// The paper's three tunings per detector.
const (
	// Optimal is the recommended middle-ground parameter set.
	Optimal Tuning = iota
	// Sensitive trades false positives for recall.
	Sensitive
	// Conservative trades recall for precision.
	Conservative
	// NumTunings is the number of parameter sets per detector.
	NumTunings
)

// String names the tuning.
func (t Tuning) String() string {
	switch t {
	case Optimal:
		return "optimal"
	case Sensitive:
		return "sensitive"
	case Conservative:
		return "conservative"
	default:
		return fmt.Sprintf("tuning(%d)", int(t))
	}
}

// Detector is one unsupervised anomaly detector with a fixed set of
// configurations.
type Detector interface {
	// Name is the short identifier used in alarms ("pca", "gamma",
	// "hough", "kl").
	Name() string
	// NumConfigs returns how many parameter sets the detector offers.
	NumConfigs() int
	// Detect analyzes the indexed trace under parameter set config and
	// returns the alarms raised. The index is shared across every
	// (detector, config) run of a trace, so implementations must treat it
	// as read-only. They must be deterministic for a given (index, config),
	// and safe for concurrent Detect calls on the same receiver: the
	// pipeline fans the twelve (detector, config) runs out across a worker
	// pool.
	Detect(ix *trace.Index, config int) ([]core.Alarm, error)
}

// DetectAllContext is the detection entry point: it runs every
// configuration of every detector over one shared trace.Index — a sealed
// segment's (seg.Index from trace.SegmentWriter/trace.Segments) or a whole
// trace's canonical index (trace.SealTrace) — and concatenates the alarms,
// the "12 outputs of all the configurations" fed to the similarity
// estimator in the paper's experiments. It also returns the per-detector
// configuration totals needed for confidence scores.
//
// The (detector, config) runs are independent, so they fan out across up to
// `workers` goroutines (<= 1 runs inline), all sharing the one trace.Index.
// Each run's alarms land in a slot keyed by (detector index, config index)
// and are concatenated in that order, so the output is byte-identical to the
// sequential path regardless of worker count or scheduling.
func DetectAllContext(ctx context.Context, ix *trace.Index, dets []Detector, workers int) ([]core.Alarm, map[string]int, error) {
	type job struct {
		d   Detector
		cfg int
	}
	var jobs []job
	totals := make(map[string]int, len(dets))
	for _, d := range dets {
		totals[d.Name()] = d.NumConfigs()
		for cfg := 0; cfg < d.NumConfigs(); cfg++ {
			jobs = append(jobs, job{d, cfg})
		}
	}
	slots, err := parallel.Map(ctx, len(jobs), workers, func(_ context.Context, i int) ([]core.Alarm, error) {
		out, err := jobs[i].d.Detect(ix, jobs[i].cfg)
		if err != nil {
			return nil, fmt.Errorf("detectors: %s/%d: %w", jobs[i].d.Name(), jobs[i].cfg, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var alarms []core.Alarm
	for _, out := range slots {
		alarms = append(alarms, out...)
	}
	return alarms, totals, nil
}

// CheckConfig validates a configuration index against a detector.
func CheckConfig(d Detector, config int) error {
	if config < 0 || config >= d.NumConfigs() {
		return fmt.Errorf("detectors: %s: config %d out of [0,%d)", d.Name(), config, d.NumConfigs())
	}
	return nil
}

// TopHosts returns up to k hosts by descending packet count (ties broken
// by address).
func TopHosts(counts map[trace.IPv4]int, k int) []trace.IPv4 {
	type hc struct {
		h trace.IPv4
		n int
	}
	all := make([]hc, 0, len(counts))
	for h, n := range counts {
		all = append(all, hc{h, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].h < all[j].h
	})
	out := make([]trace.IPv4, min(k, len(all)))
	for i := range out {
		out[i] = all[i].h
	}
	return out
}
