package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the service sees, reported by every
// untraced run (--trace 0). BENCHMARK.json lists the same names. p90
// latency is printed in the report but is not one of them: on a host
// whose CPUs other tenants steal from, its spread over ten seeds reached
// a quarter of its median, where p50's stayed under a tenth.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics (--trace 1). Every *_ms metric of
// the latency ladder is a mean per client operation, so the ladder's
// self times add up to client.call_ms (see ladder).
var perLayer = []metricDef{
	{"client.call_ms", "ms"},
	{"client.unattributed_ms", "ms"},
	{"http.handler_ms", "ms"},
	{"http.outside_engine_ms", "ms"},
	{"engine.total_ms", "ms"},
	{"engine.decode_ms", "ms"},
	{"engine.encode_ms", "ms"},
	{"engine.other_ms", "ms"},
	{"batch.queue_wait_ms", "ms"},
	{"batch.pass_ms", "ms"},
	{"batch.pass_self_ms", "ms"},
	{"batch.localize.passes", "count"},
	{"batch.localize.avg_rows", "rows"},
	{"batch.localize.fill_frac", "fraction"},
	{"batch.localize.dropped_rows", "count"},
	{"batch.track.passes", "count"},
	{"batch.track.avg_rows", "rows"},
	{"batch.track.fill_frac", "fraction"},
	{"batch.track.dropped_rows", "count"},
	{"session.lock_ms", "ms"},
	{"session.lock_count", "count"},
	{"journal.append_ms", "ms"},
	{"journal.append_count", "count"},
	{"journal.fsync_ms", "ms"},
	{"journal.fsync_count", "count"},
	{"core.pass_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.share_of_pass", "fraction"},
	{"core.predict_us_per_row.wifi", "us"},
	{"core.predict_us_per_row.imu", "us"},
	{"mat.kernel_ms", "ms"},
	{"mat.gemm_f64_us", "us"},
	{"mat.qgemm_i8_us", "us"},
	{"mat.share_of_pass", "fraction"},
	{"setup.dataset_s", "s"},
	{"setup.load_bundle_s.wifi", "s"},
	{"setup.load_bundle_s.imu", "s"},
	{"setup.int8_gate_s", "s"},
	{"setup.engine_boot_ms", "ms"},
	{"setup.first_request_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.conn_wait_frac", "fraction"},
	{"trace.overhead_ms", "ms"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: a
// letter or digit first, then up to 63 more letters, digits, '_', '.'
// or '-'.
func validName(s string) bool { return metricName.MatchString(s) }

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the result-line metrics map for defs from values, failing
// on a definition without a value or a value without a definition.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s has no definition", name)
			}
		}
	}
	return out, nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. ok is false when fewer than minBeyond samples lie
// beyond it: such a percentile is a statement about a handful of
// samples and is not reported.
func percentile(samples []time.Duration, q float64) (v time.Duration, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank], true
}

// highestPercentile returns the largest of the standard percentiles that
// the sample supports, for the human-readable report.
func highestPercentile(samples []time.Duration) (q float64, v time.Duration, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if v, ok := percentile(samples, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// median returns the middle value of vs (the mean of the middle two
// for an even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
