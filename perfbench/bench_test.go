package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"noble/internal/geo"
	"noble/internal/quantize"
	"noble/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want time.Duration
		ok   bool
	}{
		{100, 0.5, 50 * time.Millisecond, true},
		{100, 0.9, 90 * time.Millisecond, true}, // exactly ten beyond
		{99, 0.9, 0, false},                     // nine beyond
		{100, 0.99, 0, false},
		{1000, 0.99, 990 * time.Millisecond, true},
		{999, 0.99, 0, false},
		{15, 0.5, 0, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(samples(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSchedulesAreSeedDeterministic(t *testing.T) {
	window := 2 * time.Second
	d1, p1 := sparseSchedule(7, 0, window, sparsePool)
	d2, p2 := sparseSchedule(7, 0, window, sparsePool)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("localize_sparse: same seed, different schedule")
	}
	if d3, p3 := sparseSchedule(8, 0, window, sparsePool); reflect.DeepEqual(d1, d3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("localize_sparse: another seed, same schedule")
	}
	if d4, _ := sparseSchedule(7, 1, window, sparsePool); reflect.DeepEqual(d1, d4) {
		t.Fatal("localize_sparse: windows of one run share a schedule")
	}
	if rate := float64(len(d1)) / window.Seconds(); math.Abs(rate-250) > 15 {
		t.Fatalf("localize_sparse offers %.1f req/s, want about 250", rate)
	}

	starts := func(seed int64) []int {
		rng := newRand(seed, streamBulk, 0)
		out := make([]int, 50)
		for i := range out {
			out[i] = bulkStart(rng)
		}
		return out
	}
	if !reflect.DeepEqual(starts(7), starts(7)) || reflect.DeepEqual(starts(7), starts(8)) {
		t.Fatal("bulk_int8: request payloads do not follow the seed")
	}

	window = 4 * time.Second
	grid := quantize.NewGrid(1, []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}, {X: 5, Y: 5}})
	plan := func(seed int64) ([]time.Duration, []trackOp) {
		devs := trackDevicesFor(seed, grid)
		ops, tops := trackSchedule(seed, 0, window, devs, 6, trackPool)
		dues := make([]time.Duration, len(ops))
		for i, op := range ops {
			dues[i] = op.due
		}
		return dues, tops
	}
	a, at := plan(7)
	b, bt := plan(7)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(at, bt) {
		t.Fatal("track_journal: same seed, different plan")
	}
	if c, _ := plan(8); reflect.DeepEqual(a, c) {
		t.Fatal("track_journal: another seed, same plan")
	}
	if rate := float64(len(a)) / window.Seconds(); math.Abs(rate-320) > 16 {
		t.Fatalf("track_journal plans %.1f steps/s, want about 320", rate)
	}
	fixes := 0
	for _, op := range at {
		if op.in.fp >= 0 {
			fixes++
		}
	}
	if share := float64(fixes) / float64(len(at)); math.Abs(share-1.0/trackFixEvery) > 0.02 {
		t.Fatalf("track_journal: %d fixes in %d steps, want one in %d", fixes, len(at), trackFixEvery)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is invalid or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: invalid unit %q", d.Name, d.Unit)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}

	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || !validName(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q does not match %q or has no one-line why", i, w.Name, specs[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %d: %s (%s, %s), benchmark reports %s (%s)", i, m.Name, m.Unit, m.Better, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestEveryMetricPrinted runs the one command on miniature bundles for
// every workload, untraced and traced, and checks that the result line
// names every metric with its unit, that every answer was right, and
// that the traced run's self times add up to the client's call time.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a minute in total")
	}
	work := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			// Five seconds is the shortest window whose open loops give the
			// generator's p99 lateness its ten samples beyond.
			res, err := run(config{workload: sp.name, seed: 3, window: 5 * time.Second, traced: traced,
				work: work, scale: serve.DemoTiny}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", sp.name, traced, err, out.String())
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			if !parsed.Correct || parsed.Failed != 0 || parsed.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", sp.name, traced, parsed.Correct, parsed.Failed, parsed.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := parsed.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or without unit %s", sp.name, traced, d.Name, d.Unit)
				}
			}
			if !traced {
				continue
			}
			sum := 0.0
			for _, name := range selfTimes {
				sum += res.Metrics[name].Value
			}
			if call := res.Metrics["client.call_ms"].Value; math.Abs(sum-call) > 1e-9*call {
				t.Errorf("%s: self times add up to %v ms, client call is %v ms", sp.name, sum, call)
			}
		}
	}
}
