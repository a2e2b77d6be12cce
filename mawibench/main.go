// Command mawibench is the MAWILab end-to-end benchmark. It generates its
// inputs from a seed, runs one named workload against the program's public
// surfaces — the mawilab library (DecodePcap, Pipeline.RunIndex,
// Pipeline.RunStream, WriteCSV/WriteADMD) and the real mawilabd daemon over
// loopback — checks every output, and prints the workload's metrics.
//
// Usage, from the root of a checkout (run.sh builds both binaries first):
//
//	bash mawibench/run.sh --workload batch-days --seed 1 --seconds 15 --trace 0
//	bash mawibench/run.sh compare a.json b.json
//
// With --trace 0 the run prints the end-to-end metrics, from a window the
// host stole little CPU from (see measureWindow); with --trace 1 it prints
// the per-layer ledger of a traced run (on the library workloads, after an
// untraced run of the same length, to measure the tracing overhead). The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat every
// metric under the name the workload gives it, with its sample count, and
// the machine stamp. --out also writes the full record, which compare reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the pinned batch-days digests were taken on.
const defaultSeed = 1

// runDeadline bounds one whole run, set-up and checks included.
const runDeadline = 170 * time.Second

// metricDef is one metric of the benchmark's contract. workloads lists the
// workloads a per-layer metric is measured on; elsewhere it reads 0.
type metricDef struct {
	name, unit string
	workloads  []string
}

const (
	wBatch  = "batch-days"
	wStream = "stream-windows"
	wDaemon = "daemon-mixed"
)

var allWorkloads = []string{wBatch, wStream, wDaemon}

// endToEnd are the metrics a user sees. Each workload measures every one:
// label_ms is day_label_ms on batch-days, window_emit_ms on stream-windows
// and upload_labeled_ms on daemon-mixed; pkts_per_s is the labeling
// throughput; read_ms is the time to read labels back (the v1 encoder on
// the library workloads, label reads and community queries on the daemon).
var endToEnd = []metricDef{
	{name: "label_ms_p50", unit: "ms"},
	{name: "label_ms_p90", unit: "ms"},
	{name: "pkts_per_s", unit: "1/s"},
	{name: "read_ms_p50", unit: "ms"},
	{name: "read_ms_p90", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

var (
	libOnly    = []string{wBatch, wStream}
	daemonOnly = []string{wDaemon}
)

// perLayer is the traced run's ledger. Times are per op: per day on
// batch-days, per emitted window on stream-windows, per labeling job on
// daemon-mixed.
var perLayer = []metricDef{
	{name: "pcap.decode_ms", unit: "ms", workloads: []string{wBatch, wDaemon}},
	{name: "pcap.encode_ms", unit: "ms", workloads: daemonOnly},
	{name: "trace.seal_ms", unit: "ms", workloads: []string{wStream}},
	{name: "trace.window_index_ms", unit: "ms", workloads: []string{wStream}},
	{name: "trace.reindex_ratio", unit: "ratio", workloads: allWorkloads},
	{name: "trace.flows", unit: "count", workloads: allWorkloads},
	{name: "stage.ingest_ms", unit: "ms", workloads: allWorkloads},
	{name: "stage.detect_ms", unit: "ms", workloads: allWorkloads},
	{name: "stage.estimate_ms", unit: "ms", workloads: allWorkloads},
	{name: "stage.label_ms", unit: "ms", workloads: allWorkloads},
	{name: "stage.unattributed_ms", unit: "ms", workloads: allWorkloads},
	{name: "ledger.gap_pct", unit: "%", workloads: libOnly},
	{name: "detectors.pca_ms", unit: "ms", workloads: allWorkloads},
	{name: "detectors.gamma_ms", unit: "ms", workloads: allWorkloads},
	{name: "detectors.hough_ms", unit: "ms", workloads: allWorkloads},
	{name: "detectors.kl_ms", unit: "ms", workloads: allWorkloads},
	{name: "detectors.alarms", unit: "count", workloads: allWorkloads},
	{name: "core.extract_ms", unit: "ms", workloads: allWorkloads},
	{name: "core.reextract_ratio", unit: "ratio", workloads: allWorkloads},
	{name: "core.combine_ms", unit: "ms", workloads: allWorkloads},
	{name: "core.label_ms", unit: "ms", workloads: allWorkloads},
	{name: "simgraph.build_ms", unit: "ms", workloads: allWorkloads},
	{name: "simgraph.edges", unit: "count", workloads: allWorkloads},
	{name: "graphx.louvain_ms", unit: "ms", workloads: allWorkloads},
	{name: "graphx.communities", unit: "count", workloads: allWorkloads},
	{name: "apriori.rules", unit: "count", workloads: allWorkloads},
	{name: "v1.encode_ms", unit: "ms", workloads: allWorkloads},
	{name: "serve.admit_ms_p50", unit: "ms", workloads: daemonOnly},
	{name: "serve.job_run_ms_p50", unit: "ms", workloads: daemonOnly},
	{name: "serve.queue_wait_ms_p90", unit: "ms", workloads: daemonOnly},
	{name: "serve.dup_ms_p50", unit: "ms", workloads: daemonOnly},
	{name: "serve.cache_hit_ratio", unit: "ratio", workloads: daemonOnly},
	{name: "serve.index_cache_hit_ratio", unit: "ratio", workloads: daemonOnly},
	{name: "serve.store_disk_reads", unit: "count", workloads: daemonOnly},
	{name: "serve.rejected", unit: "count", workloads: daemonOnly},
	{name: "go.alloc_mb_per_op", unit: "MB/op", workloads: allWorkloads},
	{name: "go.gc_cycles", unit: "count/op", workloads: allWorkloads},
	{name: "gen.late_ms_p90", unit: "ms", workloads: daemonOnly},
	{name: "bench.trace_overhead_pct", unit: "%", workloads: libOnly},
	{name: "ops_failed_ratio", unit: "ratio", workloads: allWorkloads},
}

// ledgerTolerancePct is how far the traced stage spans may fall short of or
// exceed the end-to-end time on the library workloads before the ledger
// check fails the run.
const ledgerTolerancePct = 10

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // mawilabd binary
	workdir  string // directory inside the checkout for the daemon's files
	scale    scale
	// pins maps batch-days day names to their CSV sha256; nil skips the
	// check (it applies to the default seed at full scale only).
	pins map[string]string
	// startDaemon launches the daemon for daemon-mixed; tests substitute
	// an in-process server.
	startDaemon func(ctx context.Context, cfg *config, dir string) (*daemonProc, error)
}

// metric is one value of the printed result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// note is one line of the human-readable report: a metric under the name
// its workload gives it.
type note struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// record is the full result --out writes and compare reads.
type record struct {
	Stamp    stamp    `json:"stamp"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Outcome  outcome  `json:"outcome"`
	Notes    []note   `json:"notes"`
	Problems []string `json:"problems,omitempty"`
}

// bench collects one run's results.
type bench struct {
	cfg       *config
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	notes     []note
}

func newBench(cfg *config) *bench {
	return &bench{cfg: cfg, values: make(map[string]float64)}
}

// problem records a failed check; any problem makes the run incorrect.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// opFailed counts one failed, refused or divergent op.
func (b *bench) opFailed(format string, args ...any) {
	b.failed++
	b.problem(format, args...)
}

// put sets a contract metric and notes it under the workload's own name
// (alias, or the metric name when empty) with its sample count.
func (b *bench) put(name, alias string, v float64, samples int) {
	b.values[name] = v
	if alias == "" {
		alias = name
	}
	b.noteValue(alias, v, unitOf(name), samples)
}

// noteValue adds a report line that is not a contract metric.
func (b *bench) noteValue(name string, v float64, unit string, samples int) {
	b.notes = append(b.notes, note{Name: name, Value: v, Unit: unit, Samples: samples})
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// outcome assembles the printed result: the end-to-end metrics untraced,
// the per-layer ledger traced. A metric the workload should have measured
// but did not is a benchmark bug and fails the run.
func (b *bench) outcome() outcome {
	o := outcome{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric)}
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := b.values[m.name]
		applies := m.workloads == nil
		for _, w := range m.workloads {
			applies = applies || w == b.cfg.workload
		}
		if !ok && applies {
			b.problem("metric %s was not measured", m.name)
		}
		o.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if o.Attempted < 1 {
		b.problem("no op was attempted")
		o.Attempted = 1
	}
	o.Correct = len(b.problems) == 0 && b.failed == 0
	return o
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	wBatch:  runBatch,
	wStream: runStream,
	wDaemon: runDaemon,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	cfg := &config{scale: fullScale, startDaemon: startDaemonProcess}
	var traceFlag int
	var out string
	fs := flag.NewFlagSet("mawibench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", wBatch, "workload: "+strings.Join(allWorkloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced ledger run")
	fs.StringVar(&cfg.daemon, "daemon", "", "mawilabd binary (run.sh passes it)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the daemon's store")
	fs.StringVar(&out, "out", "", "also write the full result record to this file")
	fs.Parse(os.Args[1:])
	cfg.trace = traceFlag == 1
	if cfg.seed == defaultSeed {
		cfg.pins = pinnedCSV
	}
	b, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mawibench: %v\n", err)
		os.Exit(1)
	}
	o := b.outcome()
	rec := record{Stamp: machineStamp(), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Outcome: o, Notes: b.notes, Problems: b.problems}
	printReport(os.Stdout, &rec)
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "mawibench: FAIL: %s\n", p)
	}
	if out != "" {
		data, err := json.MarshalIndent(&rec, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mawibench: writing %s: %v\n", out, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(&o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mawibench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !o.Correct {
		os.Exit(1)
	}
}

// run executes one workload under the run deadline.
func run(cfg *config) (*bench, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(allWorkloads, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := newBench(cfg)
	if err := fn(ctx, b); err != nil {
		return nil, err
	}
	b.put("ops_failed_ratio", "", ratio(float64(b.failed), float64(b.attempted)), b.attempted)
	return b, nil
}

// printReport writes the human-readable lines that precede the result.
func printReport(w io.Writer, rec *record) {
	s := rec.Stamp
	fmt.Fprintf(w, "# mawibench %s seed=%d seconds=%g trace=%t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "# stamp nproc=%d gomaxprocs=%d cpu=%q go=%s\n", s.NProc, s.GOMAXPROCS, s.CPU, s.Go)
	for _, n := range rec.Notes {
		if n.Samples > 0 {
			fmt.Fprintf(w, "%-30s %14.4f %-8s (%d samples)\n", n.Name, n.Value, n.Unit, n.Samples)
		} else {
			fmt.Fprintf(w, "%-30s %14.4f %s\n", n.Name, n.Value, n.Unit)
		}
	}
}

// compareMain prints the metric ratios of two records written by --out. It
// refuses records whose machine stamps differ: a figure from another CPU
// count, GOMAXPROCS, CPU model or Go version is not comparable.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mawibench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mawibench: reading %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(&recs[0], &recs[1]); err != nil {
		fmt.Fprintf(os.Stderr, "mawibench: refusing to compare: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(recs[0].Outcome.Metrics))
	for name := range recs[0].Outcome.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := recs[0].Outcome.Metrics[name]
		bm, ok := recs[1].Outcome.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-30s %14.4f %14s %s\n", name, a.Value, "missing", a.Unit)
			continue
		}
		ratio := "n/a"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(bm.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(w, "%-30s %14.4f %14.4f %-8s %s\n", name, a.Value, bm.Value, a.Unit, ratio)
	}
	return 0
}

// comparable reports why two records may not be compared, if they may not.
func comparable(a, b *record) error {
	if a.Stamp != b.Stamp {
		return fmt.Errorf("machine stamps differ: %+v vs %+v", a.Stamp, b.Stamp)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ: %s trace=%t %gs vs %s trace=%t %gs",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	return nil
}
