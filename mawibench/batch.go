package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"mawilab"
	wirev1 "mawilab/internal/serve/v1"
)

// batchPhase is one closed-loop pass of batch-days.
type batchPhase struct {
	days, enc []span // per day: pcap bytes → encoded labels (n = packets); the encode part
	flows     int
	rssMB     float64
	sp        spans // traced: pcap.decode, v1.encode and the Observe stages
	mem       memDelta
}

// runBatch is batch-days: one closed-loop caller labels a fixed set of
// distinct archive days from pcap bytes — DecodePcap, RunIndex, then CSV
// and ADMD — cycling through the set, one day of each era in turn.
func runBatch(ctx context.Context, b *bench) error {
	sc := b.cfg.scale
	days, stop, err := setupRepeated(b, func() ([]*dayInput, func(), error) {
		d, err := makeDays(ctx, b.cfg.seed, eraDates(sc.batchDays), sc.dayDuration, sc.baseRate)
		return d, nil, err
	}, sameDays)
	if err != nil {
		return err
	}
	defer stop()
	for _, d := range days {
		got := sha256Hex(d.csv)
		fmt.Fprintf(os.Stderr, "mawibench: %s %s csv sha256 %s\n", wBatch, d.name, got)
		if b.cfg.pins == nil {
			continue
		}
		b.attempted++
		if want, ok := b.cfg.pins[d.name]; !ok || want != got {
			b.opFailed("DIVERGENCE %s: pinned CSV digest: got %s, pinned %q", d.name, got, want)
		}
	}

	if !b.cfg.trace {
		ph, err := measureWindow(b, nil, func() (*batchPhase, error) {
			return batchRun(ctx, b, days, b.cfg.seconds, sc.minSamples, false)
		})
		if err != nil {
			return err
		}
		lat, enc := durations(ph.days), durations(ph.enc)
		b.put("label_ms_p50", "day_label_ms_p50", lat.quantile(0.5), len(lat))
		b.put("label_ms_p90", "day_label_ms_p90", lat.quantile(0.9), len(lat))
		b.put("pkts_per_s", "batch_pkts_per_s", rate(ph.days), len(ph.days))
		b.put("read_ms_p50", "v1_encode_ms_p50", enc.quantile(0.5), len(enc))
		b.put("read_ms_p90", "v1_encode_ms_p90", enc.quantile(0.9), len(enc))
		b.put("peak_rss_mb", "", ph.rssMB, 0)
		return nil
	}

	untraced, err := batchRun(ctx, b, days, b.cfg.seconds/2, 0, false)
	if err != nil {
		return err
	}
	traced, err := batchRun(ctx, b, days, b.cfg.seconds/2, 0, true)
	if err != nil {
		return err
	}
	ops := len(traced.days)
	sp := traced.sp
	dayTime := ms(total(traced.days))
	gap := dayTime - ms(sp["pcap.decode"]) - stageTotal(sp) - ms(sp["v1.encode"])
	gapPct := 100 * gap / dayTime
	if gapPct > ledgerTolerancePct || gapPct < -ledgerTolerancePct {
		b.problem("ledger: decode + stage spans + encode leave %.2f%% of the day time unattributed (tolerance %d%%)", gapPct, ledgerTolerancePct)
	}
	b.put("pcap.decode_ms", "", sp.perOp("pcap.decode", ops), ops)
	b.put("v1.encode_ms", "", sp.perOp("v1.encode", ops), ops)
	putStageSpans(b, sp, ops)
	b.put("stage.unattributed_ms", "", gap/float64(max(ops, 1)), ops)
	b.put("ledger.gap_pct", "", gapPct, ops)
	b.put("trace.flows", "", float64(traced.flows)/float64(max(ops, 1)), ops)
	b.put("trace.reindex_ratio", "", 1, ops) // DecodePcap indexes each packet once
	b.put("go.alloc_mb_per_op", "", float64(traced.mem.allocBytes)/(1<<20)/float64(max(ops, 1)), ops)
	b.put("go.gc_cycles", "", float64(traced.mem.gcCycles)/float64(max(ops, 1)), ops)
	b.put("bench.trace_overhead_pct", "", overheadPct(durations(untraced.days), durations(traced.days)), ops)

	lsp, cnt := spans{}, counts{}
	replayed := min(sc.replayOps, len(days))
	for k := 0; k < replayed; k++ {
		if err := replayDay(ctx, b, days[k], lsp, cnt); err != nil {
			return err
		}
	}
	putLayerSpans(b, lsp, cnt, replayed)
	return nil
}

// batchRun runs the closed loop for seconds (and at least minOps days).
func batchRun(ctx context.Context, b *bench, days []*dayInput, seconds float64, minOps int, traced bool) (*batchPhase, error) {
	ph := &batchPhase{sp: spans{}}
	p := mawilab.NewPipeline()
	p.Workers = b.cfg.scale.workers
	if traced {
		p.Observe = observeInto(ph.sp)
	}
	rss := startRSS(0)
	start := time.Now()
	for i := 0; !phaseDone(start, seconds, len(ph.days), minOps); i++ {
		if err := ctx.Err(); err != nil {
			rss.peakMB()
			return nil, err
		}
		d := days[i%len(days)]
		op := func() error { return labelDay(ctx, b, p, d, ph, traced) }
		var err error
		if traced {
			err = ph.mem.measureMem(op)
		} else {
			err = op()
		}
		if err != nil {
			rss.peakMB()
			return nil, err
		}
	}
	peak, err := rss.peakMB()
	if err != nil {
		return nil, fmt.Errorf("sampling RSS: %w", err)
	}
	ph.rssMB = peak
	return ph, nil
}

// labelDay is one batch-days op: pcap bytes to verified CSV and ADMD.
func labelDay(ctx context.Context, b *bench, p *mawilab.Pipeline, d *dayInput, ph *batchPhase, traced bool) error {
	b.attempted++
	var csv, admd bytes.Buffer
	t0 := time.Now()
	ix, err := mawilab.DecodePcap(bytes.NewReader(d.pcap))
	if err != nil {
		b.opFailed("%s: decode: %v", d.name, err)
		return nil
	}
	tDecoded := time.Now()
	l, err := p.RunIndex(ctx, ix)
	if err != nil {
		ix.Release()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b.opFailed("%s: label: %v", d.name, err)
		return nil
	}
	tLabeled := time.Now()
	err = l.WriteCSV(&csv)
	if err == nil {
		err = wirev1.WriteADMD(&admd, d.name, ix, l.Reports)
	}
	tEncoded := time.Now()
	flows := ix.Flows()
	ix.Release()
	tDone := time.Now()
	if err != nil {
		b.opFailed("%s: encode: %v", d.name, err)
		return nil
	}
	ph.days = append(ph.days, span{from: t0, to: tDone, n: d.packets})
	ph.enc = append(ph.enc, span{from: tLabeled, to: tEncoded})
	ph.flows += flows
	if traced {
		ph.sp["pcap.decode"] += tDecoded.Sub(t0)
		ph.sp["v1.encode"] += tEncoded.Sub(tLabeled)
	}
	if !bytes.Equal(csv.Bytes(), d.csv) || !bytes.Equal(admd.Bytes(), d.admd) {
		b.opFailed("DIVERGENCE %s: labels differ from the reference labeling", d.name)
	}
	return nil
}

// replayDay replays one day layer by layer and checks its CSV against the
// reference; the replay counts as one op.
func replayDay(ctx context.Context, b *bench, d *dayInput, sp spans, cnt counts) error {
	b.attempted++
	ix, err := mawilab.DecodePcap(bytes.NewReader(d.pcap))
	if err != nil {
		return fmt.Errorf("replay %s: %w", d.name, err)
	}
	defer ix.Release()
	p := mawilab.NewPipeline()
	alarms, err := replayDetect(p, ix, sp, cnt)
	if err != nil {
		return err
	}
	reports, err := replayLabel(ctx, p, ix, alarms, sp, cnt)
	if err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := wirev1.WriteCSV(&csv, reports); err != nil {
		return err
	}
	if !bytes.Equal(csv.Bytes(), d.csv) {
		b.opFailed("DIVERGENCE %s: the traced replay's labels differ from the untraced run's", d.name)
	}
	return nil
}
