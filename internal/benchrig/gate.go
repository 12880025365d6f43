package benchrig

import (
	"fmt"
	"io"
)

// GateConfig sets the regression thresholds ci/perf-gate.sh enforces.
type GateConfig struct {
	// MaxThroughputDrop fails a scenario whose throughput fell by more
	// than this fraction of the baseline (0.15 = 15%).
	MaxThroughputDrop float64
	// MaxP99Inflation fails a scenario whose p99 latency grew by more
	// than this fraction over the baseline (0.25 = 25%).
	MaxP99Inflation float64
	// P99FloorMs guards the latency check against sub-floor jitter: the
	// baseline p99 is taken as at least this many milliseconds, and a
	// current p99 still under the floor never fails. Without it a 0.04 ms
	// → 0.06 ms wobble — scheduler noise, not a regression — reads as
	// +50%.
	P99FloorMs float64
}

// DefaultGate is the thresholds the CI gate runs with.
func DefaultGate() GateConfig {
	return GateConfig{MaxThroughputDrop: 0.15, MaxP99Inflation: 0.25, P99FloorMs: 0.25}
}

// Finding is one gate violation.
type Finding struct {
	Scenario string
	Check    string // "missing", "throughput", "p99"
	Detail   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s [%s]: %s", f.Scenario, f.Check, f.Detail)
}

// speedRatio separates machine drift from code regressions: both
// reports carry a reference-kernel calibration (see Calibrate), and
// their ratio estimates how much faster or slower THIS machine is right
// now than the machine/moment the baseline was recorded on.
//
// The ratio is capped at 1: it only ever RELAXES thresholds (a slower
// machine gets a proportionally lower throughput bar and higher p99
// allowance), never tightens them. Scenario numbers are not linear in
// CPU speed — much of a batched scenario's latency is time spent
// queued behind another request's pass, and a sequential scenario's
// throughput is bounded by waits, not compute — so demanding
// speed-times-baseline from a faster runner would fail wait-bound
// scenarios with zero code change. A faster machine simply has to meet
// the baseline at face value. The floor clamp keeps a corrupt calibration from scaling a
// real regression away entirely.
func speedRatio(current, baseline *Bench) float64 {
	c, b := current.Host.CalibrationMflops, baseline.Host.CalibrationMflops
	if c <= 0 || b <= 0 {
		return 1 // pre-calibration reports compare at face value
	}
	r := c / b
	if r < 0.25 {
		r = 0.25
	}
	if r > 1 {
		r = 1
	}
	return r
}

// Gate compares a fresh run against a baseline and returns every
// violation (empty = pass). Baseline numbers are first normalized for
// machine speed via the calibration ratio. Scenarios present only in
// the current run are fine — new coverage never fails the gate;
// scenarios missing from the current run fail, so coverage cannot
// silently shrink.
func Gate(current, baseline *Bench, cfg GateConfig) []Finding {
	speed := speedRatio(current, baseline)
	var findings []Finding
	for _, base := range baseline.Scenarios {
		cur, ok := current.Scenario(base.Name)
		if !ok {
			findings = append(findings, Finding{
				Scenario: base.Name, Check: "missing",
				Detail: "scenario in baseline but absent from the current run",
			})
			continue
		}
		// A machine running at speed×baseline should reproduce
		// speed×throughput and p99/speed before any code change.
		adjTput := base.Throughput * speed
		if floor := adjTput * (1 - cfg.MaxThroughputDrop); cur.Throughput < floor {
			findings = append(findings, Finding{
				Scenario: base.Name, Check: "throughput",
				Detail: fmt.Sprintf("%.1f %s vs baseline %.1f (speed-adjusted %.1f; -%.1f%%, limit -%.0f%%)",
					cur.Throughput, cur.Unit, base.Throughput, adjTput,
					(1-cur.Throughput/adjTput)*100, cfg.MaxThroughputDrop*100),
			})
		}
		// The floor makes the second factor of the limit at least
		// P99FloorMs*(1+inflation), so sub-floor jitter can never trip it.
		adjP99 := base.LatencyMs.P99 / speed
		if adjP99 < cfg.P99FloorMs {
			adjP99 = cfg.P99FloorMs
		}
		if cur.LatencyMs.P99 > adjP99*(1+cfg.MaxP99Inflation) {
			findings = append(findings, Finding{
				Scenario: base.Name, Check: "p99",
				Detail: fmt.Sprintf("p99 %.2f ms vs baseline %.2f ms (speed-adjusted %.2f; limit +%.0f%% over max(adjusted, %.2f ms floor))",
					cur.LatencyMs.P99, base.LatencyMs.P99, adjP99, cfg.MaxP99Inflation*100, cfg.P99FloorMs),
			})
		}
	}
	return findings
}

// WriteGateReport renders the comparison for humans: one line per
// baseline scenario with deltas, then the verdict.
func WriteGateReport(w io.Writer, current, baseline *Bench, findings []Finding) {
	if !current.Host.SameShape(baseline.Host) {
		fmt.Fprintf(w, "note: baseline host %+v differs from this host %+v — comparing via calibration normalization; re-baseline on this machine if the gate misfires\n",
			baseline.Host, current.Host)
	}
	if speed := speedRatio(current, baseline); speed != 1 {
		fmt.Fprintf(w, "machine speed vs baseline: %.2fx (calibration %.0f vs %.0f MFLOP/s); baseline numbers speed-adjusted before thresholds\n",
			speed, current.Host.CalibrationMflops, baseline.Host.CalibrationMflops)
	}
	fmt.Fprintf(w, "%-26s %14s %14s %9s %10s %10s\n",
		"scenario", "baseline", "current", "delta", "p99 base", "p99 cur")
	for _, base := range baseline.Scenarios {
		cur, ok := current.Scenario(base.Name)
		if !ok {
			fmt.Fprintf(w, "%-26s %14.1f %14s\n", base.Name, base.Throughput, "MISSING")
			continue
		}
		delta := 0.0
		if base.Throughput > 0 {
			delta = (cur.Throughput/base.Throughput - 1) * 100
		}
		fmt.Fprintf(w, "%-26s %14.1f %14.1f %+8.1f%% %10.2f %10.2f\n",
			base.Name, base.Throughput, cur.Throughput, delta,
			base.LatencyMs.P99, cur.LatencyMs.P99)
	}
	if len(findings) == 0 {
		fmt.Fprintln(w, "gate: PASS")
		return
	}
	fmt.Fprintf(w, "gate: FAIL (%d violation(s))\n", len(findings))
	for _, f := range findings {
		fmt.Fprintf(w, "  %s\n", f)
	}
}
