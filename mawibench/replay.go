package main

import (
	"context"
	"fmt"
	"time"

	"mawilab"
	"mawilab/internal/core"
	"mawilab/internal/graphx"
	"mawilab/internal/simgraph"
	"mawilab/internal/trace"
)

// The traced run attributes time to layers by replaying the labeling from
// the benchmark's own code, one public call per layer, in the order the
// engine makes them. The replay is sequential, so each span is the layer's
// busy time. Its labels must equal the measured run's byte for byte, which
// proves the replay did the same work.

// counts accumulates work counts per layer over a traced phase.
type counts map[string]float64

// replayDetect runs every configuration of every detector over ix in the
// engine's (detector, config) order and charges each detector's three
// configurations to detectors.<name>.
func replayDetect(p *mawilab.Pipeline, ix *trace.Index, sp spans, cnt counts) ([]core.Alarm, error) {
	var alarms []core.Alarm
	for _, d := range p.Detectors {
		for c := 0; c < d.NumConfigs(); c++ {
			var out []core.Alarm
			err := sp.time("detectors."+d.Name(), func() error {
				var err error
				out, err = d.Detect(ix, c)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("replay %s/%d: %w", d.Name(), c, err)
			}
			alarms = append(alarms, out...)
		}
	}
	cnt["detectors.alarms"] += float64(len(alarms))
	return alarms, nil
}

// detectorTotals maps each detector to its configuration count, the
// confidence denominators the combiner needs.
func detectorTotals(p *mawilab.Pipeline) map[string]int {
	totals := make(map[string]int, len(p.Detectors))
	for _, d := range p.Detectors {
		totals[d.Name()] = d.NumConfigs()
	}
	return totals
}

// replayLabel runs estimate → combine → label over one window's index and
// alarms: the extract, similarity-graph and Louvain steps are timed one by
// one, then core.EstimateContext (untimed) yields the result the combiner
// and labeler consume, and must agree with the timed steps on the
// community count.
func replayLabel(ctx context.Context, p *mawilab.Pipeline, ix *trace.Index, alarms []core.Alarm, sp spans, cnt counts) ([]core.CommunityReport, error) {
	est := p.Estimator
	if est.Algo != core.Louvain {
		return nil, fmt.Errorf("replay supports the Louvain estimator only, got %s", est.Algo)
	}
	ext := core.NewExtractor(ix, est.Granularity)
	ids := make([]simgraph.Set, len(alarms))
	sp.time("core.extract", func() error {
		for i := range alarms {
			ids[i] = ext.Extract(&alarms[i]).IDs
		}
		return nil
	})
	cnt["core.extracted"] += float64(len(alarms))
	var g *graphx.Graph
	if err := sp.time("simgraph.build", func() error {
		var err error
		g, err = simgraph.Build(ctx, ids, simgraph.Config{Measure: est.Measure, MinSimilarity: est.MinSimilarity, Workers: 1})
		return err
	}); err != nil {
		return nil, err
	}
	cnt["simgraph.edges"] += float64(g.EdgeCount())
	var assignment []int
	if err := sp.time("graphx.louvain", func() error {
		var err error
		assignment, err = g.LouvainContext(ctx, 1)
		return err
	}); err != nil {
		return nil, err
	}
	communities := len(graphx.Members(assignment))
	cnt["graphx.communities"] += float64(communities)

	res, err := core.EstimateContext(ctx, ix, alarms, est, 1)
	if err != nil {
		return nil, err
	}
	if len(res.Communities) != communities {
		return nil, fmt.Errorf("replay found %d communities, the estimator %d", communities, len(res.Communities))
	}
	var dec []core.Decision
	if err := sp.time("core.combine", func() error {
		var err error
		dec, err = p.Strategy.Classify(res, res.Confidences(detectorTotals(p)))
		return err
	}); err != nil {
		return nil, err
	}
	opts := core.DefaultReportOptions()
	if p.RuleSupport > 0 {
		opts.RuleSupport = p.RuleSupport
	}
	var reports []core.CommunityReport
	if err := sp.time("core.label", func() error {
		var err error
		reports, err = core.BuildReportsContext(ctx, res, dec, opts, 1)
		return err
	}); err != nil {
		return nil, err
	}
	for _, r := range reports {
		cnt["apriori.rules"] += float64(len(r.Rules))
	}
	return reports, nil
}

// putLayerSpans reports the replayed layer times and counts per op.
func putLayerSpans(b *bench, sp spans, cnt counts, ops int) {
	n := float64(max(ops, 1))
	for _, name := range []string{"pca", "gamma", "hough", "kl"} {
		b.put("detectors."+name+"_ms", "", sp.perOp("detectors."+name, ops), ops)
	}
	b.put("core.extract_ms", "", sp.perOp("core.extract", ops), ops)
	b.put("simgraph.build_ms", "", sp.perOp("simgraph.build", ops), ops)
	b.put("graphx.louvain_ms", "", sp.perOp("graphx.louvain", ops), ops)
	b.put("core.combine_ms", "", sp.perOp("core.combine", ops), ops)
	b.put("core.label_ms", "", sp.perOp("core.label", ops), ops)
	b.put("detectors.alarms", "", cnt["detectors.alarms"]/n, ops)
	b.put("simgraph.edges", "", cnt["simgraph.edges"]/n, ops)
	b.put("graphx.communities", "", cnt["graphx.communities"]/n, ops)
	b.put("apriori.rules", "", cnt["apriori.rules"]/n, ops)
	b.put("core.reextract_ratio", "", ratio(cnt["core.extracted"], cnt["detectors.alarms"]), ops)
}

// putStageSpans reports the Observe hook's stage spans per op.
func putStageSpans(b *bench, sp spans, ops int) {
	for _, st := range []mawilab.Stage{mawilab.StageIngest, mawilab.StageDetect, mawilab.StageEstimate, mawilab.StageLabel} {
		b.put("stage."+string(st)+"_ms", "", sp.perOp("stage."+string(st), ops), ops)
	}
}

// observeInto returns an Observe hook charging each stage to sp. Within
// one run the pipeline calls it sequentially.
func observeInto(sp spans) func(mawilab.Stage, float64) {
	return func(st mawilab.Stage, seconds float64) {
		sp["stage."+string(st)] += time.Duration(seconds * float64(time.Second))
	}
}

// stageTotal sums the Observe spans.
func stageTotal(sp spans) (sum float64) {
	for _, st := range []mawilab.Stage{mawilab.StageIngest, mawilab.StageDetect, mawilab.StageEstimate, mawilab.StageLabel} {
		sum += ms(sp["stage."+string(st)])
	}
	return sum
}
