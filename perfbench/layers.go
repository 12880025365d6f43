package main

import (
	"bufio"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/mat"
	"noble/internal/obs"
	"noble/internal/serve"
)

// Layers the benchmark's own spans cover.
const (
	layerClient  = "client"
	layerHandler = "http.handler"
)

// span is one timed call into a layer. Spans of one request are linked
// by Parent (0 for the root client span).
type span struct {
	ID, Parent uint64
	Layer      string
	Start, End time.Time
}

// spanLog keeps the traced window's spans in memory until the run ends.
type spanLog struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

const traceIDPrefix = "pb-"

func spanTraceID(id uint64) string { return traceIDPrefix + strconv.FormatUint(id, 10) }

// wrap records a handler span around every request while spans are on,
// linked to the client span named by the request's trace id.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseUint(strings.TrimPrefix(r.Header.Get("X-Trace-Id"), traceIDPrefix), 10, 64)
		l.add(span{ID: l.ids.Add(1), Parent: parent, Layer: layerHandler, Start: start, End: end})
	})
}

// clientAndHandler returns the mean client span and the mean handler
// span per client span, in ms, and the client span count.
func (l *spanLog) clientAndHandler() (call, handler float64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots := make(map[uint64]bool)
	var callSum, handlerSum time.Duration
	for _, s := range l.spans {
		if s.Layer == layerClient {
			roots[s.ID] = true
			callSum += s.End.Sub(s.Start)
		}
	}
	for _, s := range l.spans {
		if s.Layer == layerHandler && roots[s.Parent] {
			handlerSum += s.End.Sub(s.Start)
		}
	}
	n = len(roots)
	if n == 0 {
		return 0, 0, 0
	}
	return ms(callSum) / float64(n), ms(handlerSum) / float64(n), n
}

// write stores the spans as JSON lines, times in µs from the first
// span, and returns how many it wrote.
func (l *spanLog) write(path string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == 0 {
		return 0, nil
	}
	origin := l.spans[0].Start
	for _, s := range l.spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		rec := struct {
			ID      uint64  `json:"id"`
			Parent  uint64  `json:"parent,omitempty"`
			Layer   string  `json:"layer"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
		}{s.ID, s.Parent, s.Layer, float64(s.Start.Sub(origin)) / 1e3, float64(s.End.Sub(s.Start)) / 1e3}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(l.spans), f.Close()
}

// stageDelta is the per-stage count and seconds recorded between two
// engine tracer snapshots.
func stageDelta(before, after map[string]obs.StageStats) map[string]obs.StageStats {
	out := make(map[string]obs.StageStats, len(after))
	for name, a := range after {
		b := before[name]
		out[name] = obs.StageStats{Count: a.Count - b.Count, SumSeconds: a.SumSeconds - b.SumSeconds}
	}
	return out
}

func batchDelta(before, after serve.BatchSnapshot) serve.BatchSnapshot {
	d := serve.BatchSnapshot{
		Passes: after.Passes - before.Passes, Rows: after.Rows - before.Rows,
		DroppedRows: after.DroppedRows - before.DroppedRows,
		SizeCounts:  make([]int64, len(after.SizeCounts)),
	}
	for i := range d.SizeCounts {
		d.SizeCounts[i] = after.SizeCounts[i]
		if i < len(before.SizeCounts) {
			d.SizeCounts[i] -= before.SizeCounts[i]
		}
	}
	return d
}

// Batcher kinds, as the engine names them.
const (
	kindLocalize = "localize"
	kindTrack    = "track"
)

// ladder turns the traced window into the latency ladder: every entry
// is a mean per client operation, and the self times
//
//	client.unattributed + http.outside_engine + engine.decode +
//	engine.encode + engine.other + batch.queue_wait + session.lock +
//	journal.append + journal.fsync + batch.pass_self + core.self +
//	mat.kernel
//
// add up to client.call_ms.
func ladder(m map[string]float64, call, handler float64, ops int, st map[string]obs.StageStats) {
	per := func(stage string) float64 { return st[stage].SumSeconds * 1e3 / float64(ops) }
	m["client.call_ms"] = call
	m["http.handler_ms"] = handler
	m["client.unattributed_ms"] = call - handler
	total := per(obs.StageTotal)
	m["engine.total_ms"] = total
	m["http.outside_engine_ms"] = handler - total
	m["engine.decode_ms"] = per(obs.StageDecode)
	m["engine.encode_ms"] = per(obs.StageEncode)
	m["batch.queue_wait_ms"] = per(obs.StageQueueWait)
	m["batch.pass_ms"] = per(obs.StageBatchPass)
	m["session.lock_ms"] = per(obs.StageSessionLock)
	m["session.lock_count"] = float64(st[obs.StageSessionLock].Count)
	m["journal.append_ms"] = per(obs.StageJournalAppend)
	m["journal.append_count"] = float64(st[obs.StageJournalAppend].Count)
	m["journal.fsync_ms"] = per(obs.StageJournalFsync)
	m["journal.fsync_count"] = float64(st[obs.StageJournalFsync].Count)
	m["engine.other_ms"] = total - m["engine.decode_ms"] - m["engine.encode_ms"] - m["batch.queue_wait_ms"] -
		m["batch.pass_ms"] - m["session.lock_ms"] - m["journal.append_ms"] - m["journal.fsync_ms"]
}

// selfTimes lists the ladder's self-time entries, in request order.
var selfTimes = []string{
	"client.unattributed_ms", "http.outside_engine_ms", "engine.decode_ms", "engine.other_ms",
	"session.lock_ms", "batch.queue_wait_ms", "batch.pass_self_ms", "core.self_ms", "mat.kernel_ms",
	"journal.append_ms", "journal.fsync_ms", "engine.encode_ms",
}

// batchMetrics reports one batcher kind's coalescing over the window.
func batchMetrics(m map[string]float64, kind string, d serve.BatchSnapshot) {
	p := "batch." + kind + "."
	m[p+"passes"] = float64(d.Passes)
	m[p+"avg_rows"] = ratio(float64(d.Rows), float64(d.Passes))
	m[p+"fill_frac"] = m[p+"avg_rows"] / maxBatch
	m[p+"dropped_rows"] = float64(d.DroppedRows)
}

// replayKind is one batcher kind's passes to replay below the engine:
// the window's pass-size histogram, how many rows one request put in a
// pass, and timers for the model forward and its kernels at s rows.
type replayKind struct {
	hist      serve.BatchSnapshot
	rows      int  // rows per request
	quantized bool // the model serves the int8 tier
	core      func(s int) time.Duration
	kernel    func(s int) time.Duration
}

// replay re-runs the traced window's passes through core and mat, one
// histogram bucket at a time at the bucket's upper size bound, and
// reports each rung per client operation next to batch.pass_ms.
func replay(m map[string]float64, ops int, kinds map[string]*replayKind) {
	bounds := serve.BatchSizeBuckets()
	var corePerOp, kernelPerOp time.Duration
	var f64Sum, i8Sum time.Duration
	var f64Passes, i8Passes int64
	m["core.predict_us_per_row.wifi"], m["core.predict_us_per_row.imu"] = 0, 0
	for kind, k := range kinds {
		var coreSum time.Duration
		var rows int64
		for b, c := range k.hist.SizeCounts {
			if c == 0 {
				continue
			}
			s := maxBatch
			if b < len(bounds) && bounds[b] < s {
				s = bounds[b]
			}
			tc, tk := k.core(s), k.kernel(s)
			coreSum += time.Duration(c) * tc
			rows += c * int64(s)
			// A pass of s rows answers s/rows requests; each request's
			// trace records the whole pass.
			riders := float64(s) / float64(k.rows)
			corePerOp += time.Duration(float64(c) * riders * float64(tc))
			kernelPerOp += time.Duration(float64(c) * riders * float64(tk))
			if k.quantized {
				i8Sum += time.Duration(c) * tk
				i8Passes += c
			} else {
				f64Sum += time.Duration(c) * tk
				f64Passes += c
			}
		}
		name := "core.predict_us_per_row.wifi"
		if kind == kindTrack {
			name = "core.predict_us_per_row.imu"
		}
		if rows > 0 {
			m[name] = float64(coreSum) / 1e3 / float64(rows)
		}
	}
	pass := m["batch.pass_ms"]
	m["core.pass_ms"] = ms(corePerOp) / float64(ops)
	m["mat.kernel_ms"] = ms(kernelPerOp) / float64(ops)
	m["batch.pass_self_ms"] = pass - m["core.pass_ms"]
	m["core.self_ms"] = m["core.pass_ms"] - m["mat.kernel_ms"]
	m["core.share_of_pass"] = ratio(m["core.pass_ms"], pass)
	m["mat.share_of_pass"] = ratio(m["mat.kernel_ms"], pass)
	m["mat.gemm_f64_us"] = ratio(float64(f64Sum)/1e3, float64(f64Passes))
	m["mat.qgemm_i8_us"] = ratio(float64(i8Sum)/1e3, float64(i8Passes))
}

// medianTime times f: one warm call, then at least 5 and at most 200
// calls within about 50 ms, and returns the median call.
func medianTime(f func()) time.Duration {
	f()
	var ds []time.Duration
	stop := time.Now().Add(50 * time.Millisecond)
	for len(ds) < 5 || (len(ds) < 200 && time.Now().Before(stop)) {
		t := time.Now()
		f()
		ds = append(ds, time.Since(t))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// gemmShape is one dense layer's matrix product: rows×k times k×n.
type gemmShape struct{ rowsPer, k, n int }

// wifiShapes lists the Wi-Fi model's layer products per input row: the
// trunk, then the enabled heads, as core.NewWiFiModel builds them.
func wifiShapes(m *core.WiFiModel) []gemmShape {
	var out []gemmShape
	prev := m.InputDim()
	for _, h := range m.Cfg.Hidden {
		out = append(out, gemmShape{1, prev, h})
		prev = h
	}
	out = append(out, gemmShape{1, prev, m.Classes()})
	if m.Cfg.CoarseHead {
		out = append(out, gemmShape{1, prev, m.Grids.Coarse.Classes()})
	}
	if m.Cfg.BuildingHead {
		out = append(out, gemmShape{1, prev, m.NumBuildings()})
	}
	if m.Cfg.FloorHead {
		out = append(out, gemmShape{1, prev, m.NumFloors()})
	}
	return out
}

// imuShapes lists the IMU model's layer products per input path: the
// block projection (one product row per segment slot), the displacement
// network, and the location network, as core.NewIMUModel builds them.
func imuShapes(m *core.IMUModel) []gemmShape {
	cfg := m.Cfg
	out := []gemmShape{{m.MaxLen(), m.SegmentDim(), cfg.ProjDim}}
	prev := m.MaxLen() * cfg.ProjDim
	for _, h := range cfg.Hidden {
		out = append(out, gemmShape{1, prev, h})
		prev = h
	}
	out = append(out, gemmShape{1, prev, 2})
	locIn := 2
	if cfg.WireSum {
		locIn += 2
	}
	if cfg.StartOneHot {
		locIn += m.Classes()
	}
	if cfg.LocHidden > 0 {
		out = append(out, gemmShape{1, locIn, cfg.LocHidden}, gemmShape{1, cfg.LocHidden, m.Classes()})
	} else {
		out = append(out, gemmShape{1, locIn, m.Classes()})
	}
	return out
}

// kernelTimer returns a timer of one forward pass's matrix products at
// s rows: MatMulInto for fp64, QuantizeRowInto plus QMat.MulInto for
// int8. Operands are random; the kernels' cost does not depend on the
// values.
func kernelTimer(shapes []gemmShape, quantized bool) func(s int) time.Duration {
	rng := rand.New(rand.NewPCG(1, 2))
	random := func(r, c int) *mat.Dense {
		d := mat.New(r, c)
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		return d
	}
	weights := make([]*mat.Dense, len(shapes))
	qweights := make([]*mat.QMat, len(shapes))
	for i, sh := range shapes {
		weights[i] = random(sh.k, sh.n)
		if quantized {
			qweights[i] = mat.QuantizeWeights(weights[i])
		}
	}
	return func(s int) time.Duration {
		var total time.Duration
		for i, sh := range shapes {
			rows := s * sh.rowsPer
			a := random(rows, sh.k)
			if !quantized {
				dst := mat.New(rows, sh.n)
				total += medianTime(func() { mat.MatMulInto(dst, a, weights[i]) })
				continue
			}
			q := qweights[i]
			qa := make([]int8, rows*q.Kp)
			acc := make([]int32, rows*q.N)
			total += medianTime(func() {
				for r := 0; r < rows; r++ {
					mat.QuantizeRowInto(qa[r*q.Kp:(r+1)*q.Kp], a.Row(r), 0.05)
				}
				q.MulInto(acc, qa, rows)
			})
		}
		return total
	}
}

// wifiReplay times PredictBatch on pool fingerprints and the model's
// kernels.
func wifiReplay(m *core.WiFiModel, pool [][]float64, quantized bool) (predict, kernel func(int) time.Duration) {
	predict = func(s int) time.Duration {
		rows := make([][]float64, s)
		for i := range rows {
			rows[i] = pool[i%len(pool)]
		}
		return medianTime(func() { m.PredictBatch(rows) })
	}
	return predict, kernelTimer(wifiShapes(m), quantized)
}

// imuReplay times PredictPaths on full-window session paths and the
// model's kernels.
func imuReplay(m *core.IMUModel, seed int64) (predict, kernel func(int) time.Duration) {
	rng := newRand(seed, streamSteps, -3)
	var paths []imu.Path
	for len(paths) < maxBatch {
		tr := m.NewPathTracker(m.Grid.Decode(rng.IntN(m.Grid.Classes())), trackWindow)
		for k := 0; k < trackWindow; k++ {
			seg := make([]float64, m.SegmentDim())
			for i := range seg {
				seg[i] = rng.NormFloat64()
			}
			p, err := tr.Step(seg)
			if err != nil {
				panic(err) // the segment has the tracker's own width
			}
			tr.Commit(seg, core.IMUPrediction{End: geo.Point{X: p.Start.X, Y: p.Start.Y}})
			if k == trackWindow-1 {
				paths = append(paths, p)
			}
		}
	}
	predict = func(s int) time.Duration { return medianTime(func() { m.PredictPaths(paths[:s]) }) }
	return predict, kernelTimer(imuShapes(m), false)
}
