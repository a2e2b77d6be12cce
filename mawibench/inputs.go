package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"mawilab"
	"mawilab/internal/mawigen"
	"mawilab/internal/parallel"
	"mawilab/internal/pcap"
)

// scale sizes every workload. The benchmark is sized for a 2-CPU machine:
// one load process and at most 2 pipeline workers, generator threads or
// open connections.
type scale struct {
	workers int // pipeline workers of the measured path

	dayDuration float64 // archive-scale day: seconds of traffic
	baseRate    float64 // background pkt/s before the first link upgrade
	batchDays   int     // distinct batch-days inputs, spread over the eras

	streamDays     int     // consecutive days concatenated into the stream
	segmentSeconds float64 // stream segment length
	windowSegments int     // window length in segments (stride 1)

	daemonDuration float64 // seconds of traffic per daemon upload
	daemonWarm     int     // digests labeled before the window opens
	daemonRate     float64 // open-loop ops per second

	minSamples   int // each p90 rests on at least this many samples
	setupRepeats int // set-up runs per run; setup_s is their median
	replayOps    int // ops the traced run replays layer by layer
}

var fullScale = scale{
	workers:        2,
	dayDuration:    45,
	baseRate:       250,
	batchDays:      32,
	streamDays:     6,
	segmentSeconds: 5,
	windowSegments: 4,
	daemonDuration: 30,
	daemonWarm:     12,
	daemonRate:     24,
	minSamples:     100,
	setupRepeats:   3,
	replayOps:      8,
}

// snaplen truncates generated frames the way MAWI's header-only captures
// are truncated, so an upload carries headers, not zero-filled payload.
const snaplen = 96

// The four traffic eras batch-days spans: the 2004 Sasser outbreak, 2005
// after it, the 2006 link upgrade and the 2008 rise of random-port P2P.
var eras = []time.Time{
	mawilab.Date(2004, 5, 10),
	mawilab.Date(2005, 10, 3),
	mawilab.Date(2006, 9, 4),
	mawilab.Date(2008, 2, 4),
}

// eraDates returns n archive dates, round-robin over the eras, a week
// apart within an era.
func eraDates(n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = eras[i%len(eras)].AddDate(0, 0, 7*(i/len(eras)))
	}
	return out
}

// sasserStart and sasserEnd bound the Sasser outbreak in the archive model.
var (
	sasserStart = mawilab.Date(2004, 5, 1)
	sasserEnd   = mawilab.Date(2005, 9, 1)
)

// dayTrace generates one archive day the way mawigen.Archive.Day does —
// the era's traffic rate and P2P share, the day's injected anomalies, the
// Sasser era's worm events — except that the anomaly schedule is drawn
// from the date alone and only the traffic from the seed. Every seed thus
// gets different packets with the same shape: packets per day and the
// anomaly mix stay put, so a run's figures move with the program, not with
// how many anomalies a seed happened to draw.
func dayTrace(seed int64, date time.Time, duration, baseRate float64) *mawilab.Trace {
	arch := mawigen.NewArchive(seed)
	plan := rand.New(rand.NewSource(int64(date.Year()*10000 + int(date.Month())*100 + date.Day())))
	cfg := mawigen.Config{
		Seed:           seed*1_000_003 + date.Unix()/86400,
		Duration:       duration,
		BackgroundRate: baseRate * arch.RateMultiplier(date),
		P2PShare:       arch.P2PShare(date),
		Date:           date,
	}
	kinds := []mawigen.Kind{
		mawigen.KindPortScan, mawigen.KindPortSweep, mawigen.KindSYNFlood, mawigen.KindICMPFlood,
		mawigen.KindNetBIOS, mawigen.KindFlashCrowd, mawigen.KindElephant,
	}
	for n := 3 + plan.Intn(5); n > 0; n-- {
		cfg.Anomalies = append(cfg.Anomalies, mawigen.Spec{
			Kind:     kinds[plan.Intn(len(kinds))],
			Start:    plan.Float64() * duration * 0.8,
			Duration: 5 + plan.Float64()*15,
			Rate:     40 + plan.Float64()*120,
		})
	}
	if arch.P2PShare(date) > 0.2 && plan.Intn(2) == 0 {
		cfg.Anomalies = append(cfg.Anomalies, mawigen.Spec{
			Kind: mawigen.KindElephant, Start: plan.Float64() * duration * 0.5,
			Duration: 20 + plan.Float64()*20, Rate: 150 + plan.Float64()*150,
		})
	}
	if !date.Before(sasserStart) && date.Before(sasserEnd) {
		w := 1 - 0.85*date.Sub(sasserStart).Hours()/sasserEnd.Sub(sasserStart).Hours()
		for n := 1 + plan.Intn(3); n > 0; n-- {
			cfg.Anomalies = append(cfg.Anomalies, mawigen.Spec{
				Kind: mawigen.KindWormSasser, Start: plan.Float64() * duration * 0.7,
				Duration: 10 + plan.Float64()*30, Rate: (60 + plan.Float64()*200) * w,
			})
		}
		for n := 1 + plan.Intn(2); n > 0; n-- {
			cfg.Anomalies = append(cfg.Anomalies, mawigen.Spec{
				Kind: mawigen.KindSasserBackdoor, Start: plan.Float64() * duration * 0.7,
				Duration: 8 + plan.Float64()*20, Rate: (40 + plan.Float64()*120) * w,
			})
		}
	}
	return mawigen.Generate(cfg).Trace
}

// dayInput is one generated day as the program receives it — pcap bytes —
// with its reference labeling.
type dayInput struct {
	name    string
	digest  string // the trace digest the daemon keys the labeling by
	pcap    []byte
	packets int
	csv     []byte // reference CSV
	admd    []byte // reference ADMD
	reports int
}

// encodePcap writes a generated trace as truncated pcap bytes.
func encodePcap(tr *mawilab.Trace) ([]byte, error) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, snaplen)
	if err != nil {
		return nil, err
	}
	for i := range tr.Packets {
		if err := w.WritePacket(&tr.Packets[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// makeDays generates one day per date from the seed and labels each with
// the sequential reference path: ReadPcap then Pipeline.Run at 1 worker,
// a different ingest path and worker count from the measured one. Days are
// generated two at a time.
func makeDays(ctx context.Context, seed int64, dates []time.Time, duration, baseRate float64) ([]*dayInput, error) {
	return parallel.Map(ctx, len(dates), 2, func(ctx context.Context, i int) (*dayInput, error) {
		name := dates[i].Format("2006-01-02")
		data, err := encodePcap(dayTrace(seed, dates[i], duration, baseRate))
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
		tr, err := mawilab.ReadPcap(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("reading back %s: %w", name, err)
		}
		p := mawilab.NewPipeline()
		p.Workers = 1
		l, err := p.RunContext(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("reference labeling of %s: %w", name, err)
		}
		d := &dayInput{name: name, digest: tr.Digest(), pcap: data, packets: tr.Len(), reports: len(l.Reports)}
		var csv, admd bytes.Buffer
		if err := l.WriteCSV(&csv); err != nil {
			return nil, err
		}
		if err := l.WriteADMD(&admd, name, tr); err != nil {
			return nil, err
		}
		d.csv, d.admd = csv.Bytes(), admd.Bytes()
		return d, nil
	})
}

// setupRepeated runs a workload's set-up cfg.scale.setupRepeats times,
// records the median wall time as setup_s, and keeps the last result; the
// earlier ones are stopped as soon as the next is built. Set-up is
// deterministic in the seed, so the repeats build identical inputs; equal
// reports that they did.
func setupRepeated[T any](b *bench, build func() (T, func(), error), equal func(a, b T) bool) (T, func(), error) {
	var (
		last    T
		stop    func()
		elapsed []time.Duration
	)
	for i := 0; i < max(1, b.cfg.scale.setupRepeats); i++ {
		t0 := time.Now()
		v, st, err := build()
		elapsed = append(elapsed, time.Since(t0))
		if err != nil {
			if stop != nil {
				stop()
			}
			var zero T
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		if stop != nil {
			stop()
			if !equal(last, v) {
				b.problem("set-up is not deterministic: repeat %d built different inputs", i+1)
			}
		}
		last, stop = v, st
		if stop == nil {
			stop = func() {}
		}
	}
	b.put("setup_s", "", samples(elapsed).quantile(0.5)/1000, len(elapsed))
	// Return the earlier repeats' memory, so the measured window's peak RSS
	// is the labeling's and not set-up's garbage.
	debug.FreeOSMemory()
	return last, stop, nil
}

// sameDays reports whether two day sets carry identical bytes and labels.
func sameDays(a, b []*dayInput) bool {
	return slices.EqualFunc(a, b, func(x, y *dayInput) bool {
		return x.name == y.name && bytes.Equal(x.pcap, y.pcap) && bytes.Equal(x.csv, y.csv) && bytes.Equal(x.admd, y.admd)
	})
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
