package detectors

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mawilab/internal/core"
	"mawilab/internal/trace"
)

// fakeDetector emits a fixed number of alarms per config.
type fakeDetector struct {
	name    string
	configs int
	fail    bool
}

func (f *fakeDetector) Name() string    { return f.name }
func (f *fakeDetector) NumConfigs() int { return f.configs }
func (f *fakeDetector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if f.fail {
		return nil, errors.New("boom")
	}
	return []core.Alarm{{Detector: f.name, Config: config}}, nil
}

func TestDetectAll(t *testing.T) {
	dets := []Detector{
		&fakeDetector{name: "a", configs: 3},
		&fakeDetector{name: "b", configs: 2},
	}
	alarms, totals, err := DetectAllContext(context.Background(), trace.NewIndex(&trace.Trace{}), dets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 5 {
		t.Errorf("alarms = %d, want 5", len(alarms))
	}
	if totals["a"] != 3 || totals["b"] != 2 {
		t.Errorf("totals = %v", totals)
	}
	keys, _ := core.ConfigUniverse(alarms)
	if len(keys) != 5 {
		t.Errorf("config universe = %v", keys)
	}
}

func TestDetectAllPropagatesError(t *testing.T) {
	dets := []Detector{&fakeDetector{name: "bad", configs: 1, fail: true}}
	if _, _, err := DetectAllContext(context.Background(), trace.NewIndex(&trace.Trace{}), dets, 1); err == nil {
		t.Error("error not propagated")
	}
}

func TestCheckConfig(t *testing.T) {
	d := &fakeDetector{name: "x", configs: 3}
	if err := CheckConfig(d, 0); err != nil {
		t.Error("config 0 should be valid")
	}
	if err := CheckConfig(d, 2); err != nil {
		t.Error("config 2 should be valid")
	}
	if err := CheckConfig(d, 3); err == nil {
		t.Error("config 3 should be invalid")
	}
	if err := CheckConfig(d, -1); err == nil {
		t.Error("config -1 should be invalid")
	}
}

func TestTuningString(t *testing.T) {
	if Optimal.String() != "optimal" || Sensitive.String() != "sensitive" || Conservative.String() != "conservative" {
		t.Error("tuning names wrong")
	}
	if Tuning(42).String() == "" {
		t.Error("unknown tuning should render")
	}
	if int(NumTunings) != 3 {
		t.Errorf("NumTunings = %d", NumTunings)
	}
}

func TestTopHosts(t *testing.T) {
	a, b, c := trace.MakeIPv4(10, 0, 0, 1), trace.MakeIPv4(10, 0, 0, 2), trace.MakeIPv4(10, 0, 0, 3)
	counts := map[trace.IPv4]int{c: 5, b: 9, a: 5}
	if got, want := TopHosts(counts, 2), []trace.IPv4{b, a}; !slices.Equal(got, want) {
		t.Errorf("TopHosts(k=2) = %v, want %v (count descending, ties by address)", got, want)
	}
	if got := TopHosts(counts, 10); len(got) != 3 || got[2] != c {
		t.Errorf("TopHosts(k=10) = %v, want all three hosts", got)
	}
	if got := TopHosts(nil, 3); len(got) != 0 {
		t.Errorf("TopHosts(nil) = %v", got)
	}
}
