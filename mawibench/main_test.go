package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mawilab/internal/serve"
)

// tinyScale runs every workload in a second or two.
var tinyScale = scale{
	workers:        2,
	dayDuration:    15,
	baseRate:       100,
	batchDays:      4,
	streamDays:     2,
	segmentSeconds: 5,
	windowSegments: 4,
	daemonDuration: 15,
	daemonWarm:     2,
	daemonRate:     16,
	minSamples:     1,
	setupRepeats:   2,
	replayOps:      2,
}

// inProcessDaemon serves the daemon's handler from this process; when
// corrupt is set, every CSV served after the load window opens (the first
// /metrics scrape) has one byte changed.
func inProcessDaemon(corrupt bool) func(context.Context, *config, string) (*daemonProc, error) {
	return func(ctx context.Context, cfg *config, dir string) (*daemonProc, error) {
		s, err := serve.New(serve.Config{StoreDir: filepath.Join(dir, "store"), PipelineWorkers: daemonWorkers})
		if err != nil {
			return nil, err
		}
		var windowOpen atomic.Bool
		h := s.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				windowOpen.Store(true)
			}
			if !corrupt || !windowOpen.Load() || !strings.HasSuffix(r.URL.Path, ".csv") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				body[len(body)-2] ^= 1
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		}))
		stop := func() error {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return s.Drain(ctx)
		}
		return &daemonProc{baseURL: srv.URL, pid: os.Getpid(), stop: stop}, nil
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload:    workload,
		seed:        7,
		seconds:     1,
		trace:       trace,
		workdir:     t.TempDir(),
		scale:       tinyScale,
		startDaemon: inProcessDaemon(false),
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestContractMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the benchmark implements.
func TestContractMatchesCatalog(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, allWorkloads)
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced at
// tiny scale: every run must pass its checks and print every metric of its
// mode with its unit, and every per-layer metric that applies to the
// workload must have been measured.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			b, err := run(tinyConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			o := b.outcome()
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v", w, trace, o.Correct, o.Attempted, o.Failed, b.problems)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(o.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedPinFails: a pinned CSV digest that does not match fails the
// run and counts as a failed op.
func TestTamperedPinFails(t *testing.T) {
	cfg := tinyConfig(t, wBatch, false)
	cfg.pins = map[string]string{}
	for _, d := range eraDates(cfg.scale.batchDays) {
		cfg.pins[d.Format("2006-01-02")] = strings.Repeat("0", 64)
	}
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o := b.outcome(); o.Correct || o.Failed != len(cfg.pins) {
		t.Fatalf("a tampered pinned digest passed: correct=%t failed=%d of %d pins", o.Correct, o.Failed, len(cfg.pins))
	}
	if !strings.Contains(strings.Join(b.problems, "\n"), "pinned CSV digest") {
		t.Fatalf("problems do not name the pin: %v", b.problems)
	}
}

// TestDivergentServedCSVFails: a daemon that serves a CSV differing from
// the in-process labeling fails the run, and the divergent ops count as
// failed.
func TestDivergentServedCSVFails(t *testing.T) {
	cfg := tinyConfig(t, wDaemon, false)
	cfg.startDaemon = inProcessDaemon(true)
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := b.outcome()
	if o.Correct || o.Failed == 0 {
		t.Fatalf("a divergent served CSV passed: correct=%t failed=%d", o.Correct, o.Failed)
	}
	if !strings.Contains(strings.Join(b.problems, "\n"), "DIVERGENCE") {
		t.Fatalf("problems do not report the divergence: %v", b.problems)
	}
}

// TestCompareRefusesDifferentStamps: results from different machines are
// not compared.
func TestCompareRefusesDifferentStamps(t *testing.T) {
	a := &record{Stamp: machineStamp(), Workload: wBatch, Seconds: 15}
	same := *a
	if err := comparable(a, &same); err != nil {
		t.Fatalf("identical stamps refused: %v", err)
	}
	other := *a
	other.Stamp.GOMAXPROCS++
	if err := comparable(a, &other); err == nil {
		t.Fatal("records with different GOMAXPROCS were compared")
	}
	dir := t.TempDir()
	for name, r := range map[string]*record{"a.json": a, "b.json": &other} {
		data, _ := json.Marshal(r)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := compareMain([]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}, &out); code == 0 {
		t.Fatal("compare accepted records with different stamps")
	}
}
