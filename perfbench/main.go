// Command perfbench is the repository benchmark. It boots the noble
// server in-process behind a real loopback listener, with noble-serve's
// shipped defaults, drives one named workload through the public client
// SDK, checks every answer, and prints its metrics.
//
//	bash perfbench/run.sh --workload localize_sparse --seed 1 --seconds 5 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - localize_sparse: open loop, one single-fingerprint localize on the
//     fp64 demo-wifi every 3-5 ms (250 req/s).
//   - bulk_int8: closed loop, two connections each keeping one
//     16-fingerprint localize on demo-wifi-int8 in flight.
//   - track_journal: open loop, 64 device sessions each appending one IMU
//     segment every 200 ms (320 steps/s), every 16th step with a Wi-Fi
//     fix, session WAL on with -fsync=interval.
//
// With --trace 0 the run reports the end-to-end metrics: set-up time
// (Registry.Reload of the workload's bundles, engine boot, listener,
// first answer), median latency per operation, rows per second, process
// CPU per operation and peak RSS while serving. The report lines above
// the result also give p90, the highest percentile the sample supports
// and the maximum. With --trace 1 it reports per-layer metrics instead:
// it sets up one public call at a time, measures one untraced window and
// then one window with the benchmark's own client and handler spans on,
// reads the engine's stage and batcher counters, and replays the
// window's pass sizes through core and mat.
//
// The last line of standard output is the result as one JSON object;
// the lines before it are a human-readable report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"noble/internal/core"
	"noble/internal/serve"
)

// warmupWindow is the untimed traffic sent before measuring.
const warmupWindow = time.Second

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	work     string // work directory: trained bundles, run state, spans
	scale    string // demo bundle scale; serve.DemoPerf outside tests
}

// result is the run's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{scale: serve.DemoPerf}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: localize_sparse, bulk_int8 or track_journal")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 5, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "work directory for trained bundles, run state and spans")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds >= 1, --trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	trainedNow, err := provision(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if trainedNow {
		// Training grows the heap far past anything a run uses; measure in
		// a fresh process image so peak RSS and the heap reflect the run.
		exe, err := os.Executable()
		if err == nil {
			err = syscall.Exec(exe, os.Args, os.Environ())
		}
		fmt.Fprintln(os.Stderr, "perfbench: restarting after training:", err)
		os.Exit(1)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run, writing the human-readable report to
// out, and returns the result line.
func run(cfg config, out io.Writer) (*result, error) {
	sp, err := lookupSpec(cfg.workload)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, err
	}
	cfg.work = work
	if _, err := provision(cfg); err != nil {
		return nil, err
	}
	trained := trainedDir(cfg)
	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	models := filepath.Join(runDir, "models")
	if err := copyBundles(trained, models, sp.bundles()); err != nil {
		return nil, fmt.Errorf("staging bundles: %w", err)
	}
	journalDir := ""
	if sp.journal {
		journalDir = filepath.Join(runDir, "wal")
	}

	metrics := make(map[string]float64)
	var srv *server
	var spans *spanLog
	if cfg.traced {
		spans = &spanLog{}
		var ladder map[string]float64
		srv, ladder, err = bootLadder(sp, models, journalDir, spans)
		for k, v := range ladder {
			metrics[k] = v
		}
	} else {
		var setup float64
		srv, setup, err = bootTimed(sp, models, journalDir)
		metrics["setup_s"] = setup
	}
	if err != nil {
		return nil, err
	}
	defer srv.close()

	f := &fixture{c: newClient(srv.url), seed: cfg.seed, spans: spans, wifi: sp.wifi, imu: sp.imu}
	if m, ok := srv.reg.Get(sp.wifi); ok {
		f.wifiM = m.WiFi
	}
	if sp.imu != "" {
		m, _ := srv.reg.Get(sp.imu)
		f.imuM = m.IMU
	}
	ld := sp.newLoad(f)
	// Set-up leaves the regenerated survey behind as garbage; collect it
	// and return it to the OS now, so the one-off collection after boot
	// does not land in whichever window it happens to hit, and resident
	// memory while serving reflects what serving keeps.
	debug.FreeOSMemory()
	ctx := context.Background()
	if err := ld.warmup(ctx); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s, seed %d, window %v, trace %v\n", sp.name, cfg.seed, cfg.window, cfg.traced)
	if cfg.traced {
		err = measureLayers(ctx, cfg, sp, srv, f, ld, spans, metrics, out, work)
	} else {
		err = measureEndToEnd(ctx, cfg, srv, ld, metrics, out)
	}
	if err != nil {
		return nil, err
	}
	ld.verify()
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("shutting down: %w", err)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	filled, err := fill(defs, metrics)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: f.attempted.Load(), Failed: f.failed.Load(), Metrics: filled}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "answers checked: %d attempted, %d failed (failed_frac %.4g)\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

// demoBundles are the bundles serve.TrainDemoBundles publishes.
var demoBundles = []string{"demo-wifi", "demo-wifi-int8", "demo-imu", "demo-imu-int8"}

func trainedDir(cfg config) string { return filepath.Join(cfg.work, "models-"+cfg.scale) }

// provision trains the demo bundles unless a previous run did; it
// reports whether it trained. Training is the benchmark's build step:
// done once per checkout, kept, and not part of any measurement.
func provision(cfg config) (trained bool, err error) {
	dir := trainedDir(cfg)
	missing := false
	for _, name := range demoBundles {
		if _, err := os.Stat(filepath.Join(dir, name, "manifest.json")); err != nil {
			missing = true
		}
	}
	if !missing {
		return false, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	if err := serve.TrainDemoBundles(dir, cfg.scale, logf); err != nil {
		return false, fmt.Errorf("training demo bundles: %w", err)
	}
	return true, nil
}

// parts is how many equal parts the measured window is cut into. The
// end-to-end figures are the medians of the parts' figures, so a burst
// of interference from outside the benchmark moves one part, not the
// result.
const parts = 5

// measureEndToEnd runs the measured window and reports what a user sees.
func measureEndToEnd(ctx context.Context, cfg config, srv *server, ld load, m map[string]float64, out io.Writer) error {
	loc0, trk0 := srv.engine.BatchSnapshot(kindLocalize), srv.engine.BatchSnapshot(kindTrack)
	slice := cfg.window / parts
	// At each slice boundary: process CPU time and resident memory.
	marks := make([]time.Duration, parts+1)
	rss := make([]float64, parts+1)
	var rssErr error
	sample := func(k int) {
		marks[k] = cpuTime()
		var err error
		if rss[k], err = procStatusMB("VmRSS"); err != nil {
			rssErr = err
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	sample(0)
	go func() {
		defer wg.Done()
		for k := 1; k <= parts; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * slice)))
			sample(k)
		}
	}()
	ws := ld.window(ctx, 0, cfg.window)
	wg.Wait()
	if err := checkWindow(ws); err != nil {
		return err
	}
	if rssErr != nil {
		return rssErr
	}
	loc := batchDelta(loc0, srv.engine.BatchSnapshot(kindLocalize))
	trk := batchDelta(trk0, srv.engine.BatchSnapshot(kindTrack))
	var p50s, p90s, rates []float64
	for k := 0; k < parts; k++ {
		// An op's latency belongs to the slice it was due (or sent) in,
		// its rows to the slice it was answered in.
		var lat []time.Duration
		var rows int64
		for _, op := range ws.ops {
			if op.at/slice == time.Duration(k) {
				lat = append(lat, op.lat)
			}
			if op.end/slice == time.Duration(k) {
				rows += int64(op.rows)
			}
		}
		p50, ok50 := percentile(lat, 0.5)
		p90, ok90 := percentile(lat, 0.9)
		if !ok50 || !ok90 {
			return fmt.Errorf("slice %d: %d operations are too few for a p90", k, len(lat))
		}
		p50s, p90s = append(p50s, ms(p50)), append(p90s, ms(p90))
		rates = append(rates, float64(rows)/slice.Seconds())
	}
	m["latency_p50_ms"] = median(p50s)
	m["rows_per_s"] = median(rates)
	// CPU is a cost, not a delay: every cycle counts, so it is the whole
	// window's CPU over the ops it answered rather than a median.
	var answered int
	for _, op := range ws.ops {
		if op.end < cfg.window {
			answered++
		}
	}
	m["cpu_ms_per_op"] = ms(marks[parts]-marks[0]) / float64(answered)
	// Peak resident memory while serving, sampled at the slice
	// boundaries. The process's peak (VmHWM) is reached during set-up and
	// on the int8 bundle depends on when the garbage collector runs under
	// the accuracy gate (155-221 MiB over ten seeds), so it is only
	// printed.
	m["peak_rss_mb"] = slices.Max(rss)
	hwm, err := procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	reportWindow(out, ws)
	fmt.Fprintf(out, "passes: localize %d, %.2f rows each; track %d, %.2f rows each\n",
		loc.Passes, ratio(float64(loc.Rows), float64(loc.Passes)), trk.Passes, ratio(float64(trk.Rows), float64(trk.Passes)))
	fmt.Fprintf(out, "per %v slice: p50 %.3v ms, p90 %.3v ms, rows/s %.4v\n", slice, p50s, p90s, rates)
	fmt.Fprintf(out, "result: p50 %.3f ms, p90 %.3f ms, %.1f rows/s (slice medians); cpu %.3f ms/op; setup %.2f s\n",
		m["latency_p50_ms"], median(p90s), m["rows_per_s"], m["cpu_ms_per_op"], m["setup_s"])
	fmt.Fprintf(out, "resident memory: %.1f MiB peak while serving, %.1f MiB peak of the process (VmHWM)\n", m["peak_rss_mb"], hwm)
	return nil
}

// checkWindow fails a window whose numbers cannot be trusted: too few
// samples for p90, or an open loop that fell behind its schedule.
func checkWindow(ws *windowStats) error {
	if _, ok := percentile(ws.lats(), 0.9); !ok {
		return fmt.Errorf("%d operations are too few for a p90", len(ws.ops))
	}
	if ws.offered > 0 {
		if rate := float64(len(ws.ops)) / ws.elapsed.Seconds(); rate < 0.97*ws.offered {
			return fmt.Errorf("backlog: completed %.1f ops/s of %.1f offered", rate, ws.offered)
		}
	}
	return nil
}

func reportWindow(out io.Writer, ws *windowStats) {
	lat := ws.lats()
	p50, _ := percentile(lat, 0.5)
	p90, _ := percentile(lat, 0.9)
	q, pq, _ := highestPercentile(lat)
	fmt.Fprintf(out, "%d ops, %d rows in %.2f s; latency n=%d p50 %.3f ms p90 %.3f ms p%s %.3f ms max %.3f ms\n",
		len(ws.ops), ws.rows(), ws.elapsed.Seconds(), len(lat), ms(p50), ms(p90),
		strconv.FormatFloat(q*100, 'f', -1, 64), ms(pq), ms(slices.Max(lat)))
	if ws.offered > 0 {
		lq, lv, _ := highestPercentile(ws.late)
		fmt.Fprintf(out, "open loop: offered %.1f ops/s; generator late p%s %.3f ms (n=%d); %.2f%% waited for a busy sender\n",
			ws.offered, strconv.FormatFloat(lq*100, 'f', -1, 64), ms(lv), len(ws.late),
			100*ratio(float64(ws.connWait), float64(len(ws.ops))))
	}
}

// measureLayers runs an untraced window (runtime and generator figures,
// tracing-overhead baseline), then a traced window, and derives the
// per-layer metrics from the spans, the engine's counters and a replay
// of the traced window's passes.
func measureLayers(ctx context.Context, cfg config, sp *spec, srv *server, f *fixture, ld load,
	spans *spanLog, m map[string]float64, out io.Writer, work string) error {
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	call0 := f.callNs.Load()
	base := ld.window(ctx, 0, cfg.window)
	untracedCall := ms(time.Duration(f.callNs.Load()-call0)) / float64(len(base.ops))
	runtime.ReadMemStats(&mem1)
	if err := checkWindow(base); err != nil {
		return err
	}
	reportWindow(out, base)
	m["runtime.alloc_kb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / float64(len(base.ops))
	m["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["loadgen.late_p99_ms"], m["loadgen.conn_wait_frac"] = 0, 0
	if base.offered > 0 {
		late, ok := percentile(base.late, 0.99)
		if !ok {
			return fmt.Errorf("%d generator wake-ups are too few for a p99", len(base.late))
		}
		m["loadgen.late_p99_ms"] = ms(late)
		m["loadgen.conn_wait_frac"] = float64(base.connWait) / float64(len(base.ops))
	}

	tracer := srv.engine.Tracer()
	st0 := tracer.StageSnapshot()
	loc0, trk0 := srv.engine.BatchSnapshot(kindLocalize), srv.engine.BatchSnapshot(kindTrack)
	spans.on.Store(true)
	traced := ld.window(ctx, 1, cfg.window)
	spans.on.Store(false)
	// The engine records a request's total after writing its response;
	// let the last ones land before reading the counters.
	time.Sleep(20 * time.Millisecond)
	st := stageDelta(st0, tracer.StageSnapshot())
	loc := batchDelta(loc0, srv.engine.BatchSnapshot(kindLocalize))
	trk := batchDelta(trk0, srv.engine.BatchSnapshot(kindTrack))
	if err := checkWindow(traced); err != nil {
		return err
	}
	reportWindow(out, traced)

	call, handler, n := spans.clientAndHandler()
	if n != len(traced.ops) {
		return fmt.Errorf("%d client spans for %d operations", n, len(traced.ops))
	}
	ladder(m, call, handler, n, st)
	batchMetrics(m, kindLocalize, loc)
	batchMetrics(m, kindTrack, trk)
	m["trace.overhead_ms"] = call - untracedCall

	kinds := map[string]*replayKind{}
	if loc.Passes > 0 {
		pool := fingerprints(newRand(cfg.seed, streamPool, 0), maxBatch, f.wifiM.InputDim())
		quantized := f.wifiM.Precision() == core.PrecisionInt8
		predict, kernel := wifiReplay(f.wifiM, pool, quantized)
		kinds[kindLocalize] = &replayKind{hist: loc, rows: sp.localizeRows, quantized: quantized, core: predict, kernel: kernel}
	}
	if trk.Passes > 0 {
		predict, kernel := imuReplay(f.imuM, cfg.seed)
		kinds[kindTrack] = &replayKind{hist: trk, rows: 1, core: predict, kernel: kernel}
	}
	replay(m, n, kinds)

	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, cfg.seed))
	written, err := spans.write(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	hwm, err := procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	reportLadder(out, m, hwm)
	fmt.Fprintf(out, "trace overhead %.4f ms per call; %d spans written to %s\n", m["trace.overhead_ms"], written, path)
	return nil
}

// reportLadder prints the self time of every layer, which add up to the
// client's mean call time, and the set-up ladder beside the process's
// peak resident memory (hwm, MiB).
func reportLadder(out io.Writer, m map[string]float64, hwm float64) {
	var b strings.Builder
	sum := 0.0
	for _, name := range selfTimes {
		sum += m[name]
		fmt.Fprintf(&b, " %s %.4f", strings.TrimSuffix(name, "_ms"), m[name])
	}
	fmt.Fprintf(out, "self ms per op:%s = %.4f (client.call %.4f)\n", b.String(), sum, m["client.call_ms"])
	fmt.Fprintf(out, "pass %.4f ms = pass self %.4f + core %.4f (share %.2f); kernels %.4f ms (share %.2f)\n",
		m["batch.pass_ms"], m["batch.pass_self_ms"], m["core.pass_ms"], m["core.share_of_pass"],
		m["mat.kernel_ms"], m["mat.share_of_pass"])
	fmt.Fprintf(out, "setup: dataset %.2f s, load wifi %.2f s, load imu %.3f s, int8 gate %.2f s, boot %.2f ms, first answer %.2f ms; peak RSS %.1f MiB (VmHWM)\n",
		m["setup.dataset_s"], m["setup.load_bundle_s.wifi"], m["setup.load_bundle_s.imu"], m["setup.int8_gate_s"],
		m["setup.engine_boot_ms"], m["setup.first_request_ms"], hwm)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusMB reads a memory field of /proc/self/status ("VmRSS",
// "VmHWM") in MiB.
func procStatusMB(field string) (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
