package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"noble/client"
	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/quantize"
)

// senders caps the load generator's concurrency: the benchmark shares a
// 2-core host with the server it measures, so it never runs more
// senders (and so connections) than that.
const senders = 2

// spec is one named workload. Why each exists is recorded in
// BENCHMARK.json; in short, localize_sparse is the lone-request path,
// bulk_int8 the forward-pass-bound int8 path, track_journal the
// stateful write path.
type spec struct {
	name    string
	wifi    string // Wi-Fi bundle answering localize requests and fixes
	imu     string // IMU bundle for session steps; "" when not tracking
	journal bool   // serve with the session WAL on
	// localizeRows is the fingerprints per localize request, so a pass
	// of s rows carries s/localizeRows requests.
	localizeRows int
	newLoad      func(f *fixture) load
}

var specs = []*spec{
	{name: "localize_sparse", wifi: "demo-wifi", localizeRows: 1, newLoad: newSparse},
	{name: "bulk_int8", wifi: "demo-wifi-int8", localizeRows: bulkRows, newLoad: newBulk},
	{name: "track_journal", wifi: "demo-wifi", imu: "demo-imu", journal: true, localizeRows: 1, newLoad: newTrack},
}

func lookupSpec(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// bundles lists the demo bundles the workload loads.
func (sp *spec) bundles() []string {
	if sp.imu == "" {
		return []string{sp.wifi}
	}
	return []string{sp.wifi, sp.imu}
}

// load drives one workload's traffic and checks its answers.
type load interface {
	// warmup sends untimed traffic: connections dialed, sessions created.
	warmup(ctx context.Context) error
	// window runs measured window idx for d and reports what it saw.
	window(ctx context.Context, idx int, d time.Duration) *windowStats
	// verify runs the checks that need the whole run's answers.
	verify()
}

// fixture is what a load works with: the client, the served models the
// answers are checked against, and the run's tallies.
type fixture struct {
	c     *client.Client
	seed  int64
	spans *spanLog // nil in untraced runs
	wifi  string
	wifiM *core.WiFiModel
	imu   string
	imuM  *core.IMUModel

	attempted atomic.Int64
	failed    atomic.Int64
	reported  atomic.Int64
	callNs    atomic.Int64 // summed SDK call time, spans on or off
}

// fail counts one failed or wrong operation; the first few are printed.
func (f *fixture) fail(format string, args ...any) {
	f.failed.Add(1)
	if f.reported.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// call runs one SDK call, inside a client span when spans are on. The
// span id travels as the request's trace id, linking the handler span.
func (f *fixture) call(ctx context.Context, fn func(ctx context.Context) error) error {
	f.attempted.Add(1)
	traced := f.spans != nil && f.spans.on.Load()
	var id uint64
	if traced {
		id = f.spans.ids.Add(1)
		ctx = client.WithTraceID(ctx, spanTraceID(id))
	}
	start := time.Now()
	err := fn(ctx)
	end := time.Now()
	f.callNs.Add(int64(end.Sub(start)))
	if traced {
		f.spans.add(span{ID: id, Layer: layerClient, Start: start, End: end})
	}
	return err
}

// Random streams. Each input family draws from its own stream of the
// seed, so adding draws to one family never shifts another.
const (
	streamPool uint64 = iota + 1
	streamSchedule
	streamBulk
	streamDevices
	streamSteps
)

func newRand(seed int64, stream uint64, idx int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|uint64(uint32(idx))))
}

// fingerprints draws n normalized Wi-Fi fingerprints: each access point
// is heard with probability 0.2, at a strength in [0.1, 1).
func fingerprints(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		fp := make([]float64, dim)
		for k := range fp {
			if rng.Float64() < 0.2 {
				fp[k] = 0.1 + 0.9*rng.Float64()
			}
		}
		out[i] = fp
	}
	return out
}

// fingerprintPool draws the run's n fingerprints and the answers the
// served Wi-Fi model must give for them, computed before any traffic.
func (f *fixture) fingerprintPool(n int) (pool [][]float64, want []core.WiFiPrediction) {
	pool = fingerprints(newRand(f.seed, streamPool, 0), n, f.wifiM.InputDim())
	for _, fp := range pool {
		want = append(want, f.wifiM.Predict(fp))
	}
	return pool, want
}

// windowStats is one measured window as the load generator saw it.
type windowStats struct {
	ops      []opRecord      // every completed op
	late     []time.Duration // open loop: timer overshoot of ops that found their sender idle
	connWait int             // open loop: ops that found their sender busy
	offered  float64         // open loop: ops per second due; 0 for a closed loop
	elapsed  time.Duration
}

// opRecord is one completed op.
type opRecord struct {
	at   time.Duration // from the window start: due time (open loop) or send time (closed loop)
	end  time.Duration // from the window start to the answer
	lat  time.Duration // from its origin to its answer
	rows int           // rows answered correctly
}

func (ws *windowStats) lats() []time.Duration {
	out := make([]time.Duration, len(ws.ops))
	for i, op := range ws.ops {
		out[i] = op.lat
	}
	return out
}

func (ws *windowStats) rows() int64 {
	var n int64
	for _, op := range ws.ops {
		n += int64(op.rows)
	}
	return n
}

// openOp is one scheduled operation of an open loop.
type openOp struct {
	due   time.Duration // offset from the window start
	after chan struct{} // closed when the op must wait for is done; nil for none
	done  chan struct{} // closed when this op is done; nil when nothing waits
}

// runOpen sends ops on their schedule from the shared senders. An op is
// timed from its due time when it had to wait (its sender busy, or the
// op it follows unfinished), and from when its sender woke otherwise:
// the sleep's overshoot is the generator's lateness, reported apart and
// not charged to the server. send returns the rows the op completed.
func runOpen(ctx context.Context, ops []openOp, window time.Duration, send func(ctx context.Context, i int) int) *windowStats {
	ws := &windowStats{offered: float64(len(ops)) / window.Seconds()}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []opRecord
			var late []time.Duration
			var connWait int
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				op := ops[i]
				if op.after != nil {
					<-op.after
				}
				due := t0.Add(op.due)
				origin := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					origin = time.Now()
					late = append(late, origin.Sub(due))
				} else {
					connWait++
				}
				rows := send(ctx, i)
				end := time.Now()
				recs = append(recs, opRecord{at: op.due, end: end.Sub(t0), lat: end.Sub(origin), rows: rows})
				if op.done != nil {
					close(op.done)
				}
			}
			mu.Lock()
			ws.ops = append(ws.ops, recs...)
			ws.late = append(ws.late, late...)
			ws.connWait += connWait
			mu.Unlock()
		}()
	}
	wg.Wait()
	ws.elapsed = time.Since(t0)
	return ws
}

// runClosed keeps one request in flight per sender until the window
// ends. send gets the sender index and returns the rows completed.
func runClosed(ctx context.Context, window time.Duration, send func(ctx context.Context, w int) int) *windowStats {
	ws := &windowStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(window)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var recs []opRecord
			for time.Now().Before(end) && ctx.Err() == nil {
				start := time.Now()
				rows := send(ctx, w)
				end := time.Now()
				recs = append(recs, opRecord{at: start.Sub(t0), end: end.Sub(t0), lat: end.Sub(start), rows: rows})
			}
			mu.Lock()
			ws.ops = append(ws.ops, recs...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ws.elapsed = time.Since(t0)
	return ws
}

// checkLocalize compares a localize answer with the model's own
// single-fingerprint Predict on the same inputs; batching must not
// change an answer by a single bit.
func (f *fixture) checkLocalize(err error, got []client.Position, want []core.WiFiPrediction) bool {
	if err != nil {
		f.fail("localize: %v", err)
		return false
	}
	if len(got) != len(want) {
		f.fail("localize: %d answers for %d fingerprints", len(got), len(want))
		return false
	}
	for i := range got {
		if !samePosition(got[i], want[i]) {
			f.fail("localize: answer %+v, want %+v", got[i], want[i])
			return false
		}
	}
	return true
}

// localize_sparse: one single-fingerprint request every 3-5 ms (mean
// 4 ms, 250 req/s), so each request normally travels alone.

const (
	sparsePool   = 256
	sparseGapMin = 3 * time.Millisecond
	sparseGapMax = 5 * time.Millisecond
)

type sparseLoad struct {
	f    *fixture
	pool [][]float64
	want []core.WiFiPrediction
}

func newSparse(f *fixture) load {
	l := &sparseLoad{f: f}
	l.pool, l.want = f.fingerprintPool(sparsePool)
	return l
}

// sparseSchedule draws window idx's due times and pool picks.
func sparseSchedule(seed int64, idx int, window time.Duration, pool int) (dues []time.Duration, picks []int) {
	rng := newRand(seed, streamSchedule, idx)
	for t := time.Duration(0); t < window; t += sparseGapMin + time.Duration(rng.Int64N(int64(sparseGapMax-sparseGapMin))) {
		dues = append(dues, t)
		picks = append(picks, rng.IntN(pool))
	}
	return dues, picks
}

func (l *sparseLoad) window(ctx context.Context, idx int, d time.Duration) *windowStats {
	dues, picks := sparseSchedule(l.f.seed, idx, d, len(l.pool))
	ops := make([]openOp, len(dues))
	for i, due := range dues {
		ops[i].due = due
	}
	return runOpen(ctx, ops, d, func(ctx context.Context, i int) int {
		k := picks[i]
		var got []client.Position
		err := l.f.call(ctx, func(ctx context.Context) (err error) {
			got, err = l.f.c.Localize(ctx, l.f.wifi, l.pool[k])
			return err
		})
		if !l.f.checkLocalize(err, got, l.want[k:k+1]) {
			return 0
		}
		return 1
	})
}

func (l *sparseLoad) warmup(ctx context.Context) error {
	l.window(ctx, -1, warmupWindow)
	return nil
}

func (l *sparseLoad) verify() {}

// bulk_int8: a closed loop of two senders, each keeping one
// 16-fingerprint request on the int8 model in flight.

const (
	bulkRows = 16
	bulkPool = 512
)

type bulkLoad struct {
	f    *fixture
	pool [][]float64
	want []core.WiFiPrediction
}

func newBulk(f *fixture) load {
	l := &bulkLoad{f: f}
	l.pool, l.want = f.fingerprintPool(bulkPool)
	return l
}

// bulkStart draws where in the pool a sender's next request starts; its
// 16 fingerprints are the consecutive pool rows from there.
func bulkStart(rng *rand.Rand) int { return rng.IntN(bulkPool - bulkRows + 1) }

func (l *bulkLoad) window(ctx context.Context, idx int, d time.Duration) *windowStats {
	rngs := make([]*rand.Rand, senders)
	for w := range rngs {
		rngs[w] = newRand(l.f.seed, streamBulk, idx*senders+w)
	}
	return runClosed(ctx, d, func(ctx context.Context, w int) int {
		k := bulkStart(rngs[w])
		var got []client.Position
		err := l.f.call(ctx, func(ctx context.Context) (err error) {
			got, err = l.f.c.Localize(ctx, l.f.wifi, l.pool[k:k+bulkRows]...)
			return err
		})
		if !l.f.checkLocalize(err, got, l.want[k:k+bulkRows]) {
			return 0
		}
		return bulkRows
	})
}

func (l *bulkLoad) warmup(ctx context.Context) error {
	l.window(ctx, -1, warmupWindow)
	return nil
}

func (l *bulkLoad) verify() {}

// track_journal: 64 device sessions, each appending one IMU segment
// every 150-250 ms (mean 200 ms, 320 steps/s); every 16th step of a
// device carries a Wi-Fi fix. A device's next step waits for its
// previous reply. The steps' spacing varies so that which devices' steps
// meet changes from step to step; with a fixed period the seed alone
// would decide how often the two senders are both busy.

const (
	trackDevices  = 64
	trackGapMin   = 150 * time.Millisecond
	trackGapMax   = 250 * time.Millisecond
	trackFixEvery = 16
	trackWindow   = 2 // decode window in segments, the server default
	trackPool     = 256
)

type device struct {
	id    string
	start geo.Point
	// steps counts the device's planned steps from a random offset in
	// [0, trackFixEvery), so that the devices' fixes do not all fall in
	// the same second.
	steps int

	// What the device sent and was answered, in order; written only by
	// the device's own (serialized) ops.
	inputs  []stepInput
	answers []client.SessionState
}

// stepInput is one append: a segment, plus a fix when fp >= 0.
type stepInput struct {
	feats []float64
	fp    int
}

type trackLoad struct {
	f    *fixture
	pool [][]float64
	want []core.WiFiPrediction
	devs []*device
}

func newTrack(f *fixture) load {
	l := &trackLoad{f: f, devs: trackDevicesFor(f.seed, f.imuM.Grid)}
	l.pool, l.want = f.fingerprintPool(trackPool)
	return l
}

// trackDevicesFor draws the devices' start positions, cells of the IMU
// model's location grid, and their step-count offsets.
func trackDevicesFor(seed int64, grid *quantize.Grid) []*device {
	rng := newRand(seed, streamDevices, 0)
	devs := make([]*device, trackDevices)
	for i := range devs {
		devs[i] = &device{
			id:    "dev-" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(i),
			start: grid.Decode(rng.IntN(grid.Classes())),
			steps: rng.IntN(trackFixEvery),
		}
	}
	return devs
}

// trackOp is one planned step.
type trackOp struct {
	dev int
	in  stepInput
}

// trackSchedule plans window idx: every device first steps within one
// mean gap of the window start, then after every gap; the device's every
// trackFixEvery-th step carries a fix. It advances each device's
// planned-step count.
func trackSchedule(seed int64, idx int, window time.Duration, devs []*device, segDim, pool int) ([]openOp, []trackOp) {
	rng := newRand(seed, streamSteps, idx)
	type planned struct {
		due time.Duration
		op  trackOp
	}
	var plan []planned
	gap := func() time.Duration { return trackGapMin + time.Duration(rng.Int64N(int64(trackGapMax-trackGapMin))) }
	for d, dev := range devs {
		for t := time.Duration(rng.Int64N(int64(trackGapMin+trackGapMax) / 2)); t < window; t += gap() {
			dev.steps++
			in := stepInput{feats: make([]float64, segDim), fp: -1}
			for k := range in.feats {
				in.feats[k] = rng.NormFloat64()
			}
			if dev.steps%trackFixEvery == 0 {
				in.fp = rng.IntN(pool)
			}
			plan = append(plan, planned{t, trackOp{d, in}})
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	ops := make([]openOp, len(plan))
	tops := make([]trackOp, len(plan))
	last := make(map[int]chan struct{})
	for i, p := range plan {
		done := make(chan struct{})
		ops[i] = openOp{due: p.due, after: last[p.op.dev], done: done}
		last[p.op.dev] = done
		tops[i] = p.op
	}
	return ops, tops
}

func (l *trackLoad) window(ctx context.Context, idx int, d time.Duration) *windowStats {
	ops, tops := trackSchedule(l.f.seed, idx, d, l.devs, l.f.imuM.SegmentDim(), len(l.pool))
	return runOpen(ctx, ops, d, func(ctx context.Context, i int) int {
		op := tops[i]
		req := client.AppendRequest{Features: op.in.feats}
		if op.in.fp >= 0 {
			req.WiFiModel = l.f.wifi
			req.Fingerprint = l.pool[op.in.fp]
		}
		if !l.append(ctx, l.devs[op.dev], req, op.in) {
			return 0
		}
		return 1
	})
}

// append sends one step of dev and keeps it for the replay check.
func (l *trackLoad) append(ctx context.Context, dev *device, req client.AppendRequest, in stepInput) bool {
	var st client.SessionState
	err := l.f.call(ctx, func(ctx context.Context) (err error) {
		st, err = l.f.c.Session(dev.id).Append(ctx, req)
		return err
	})
	if err != nil {
		l.f.fail("append %s: %v", dev.id, err)
		return false
	}
	if len(st.Results) != 1 {
		l.f.fail("append %s: %d step results for one segment", dev.id, len(st.Results))
		return false
	}
	dev.inputs = append(dev.inputs, in)
	dev.answers = append(dev.answers, st)
	return true
}

// warmup creates every session with its first step, then runs a short
// window of regular steps.
func (l *trackLoad) warmup(ctx context.Context) error {
	rng := newRand(l.f.seed, streamSteps, -2)
	for _, dev := range l.devs {
		dev.steps++
		in := stepInput{feats: make([]float64, l.f.imuM.SegmentDim()), fp: -1}
		for k := range in.feats {
			in.feats[k] = rng.NormFloat64()
		}
		start := client.XY{X: dev.start.X, Y: dev.start.Y}
		req := client.AppendRequest{Model: l.f.imu, Start: &start, Window: trackWindow, Features: in.feats}
		if !l.append(ctx, dev, req, in) {
			return fmt.Errorf("creating session %s failed", dev.id)
		}
	}
	l.window(ctx, -1, warmupWindow)
	return nil
}

// verify replays every device's accepted inputs offline through a
// PathTracker on the served models and checks each answer — the fix,
// every step, and the session state — against it.
func (l *trackLoad) verify() {
	for _, dev := range l.devs {
		tr := l.f.imuM.NewPathTracker(dev.start, trackWindow)
		for i, in := range dev.inputs {
			got := dev.answers[i]
			if in.fp >= 0 {
				fix := l.want[in.fp].Pos
				if got.Anchor == nil || got.Anchor.X != fix.X || got.Anchor.Y != fix.Y {
					l.f.fail("%s step %d: fix %+v, want %+v", dev.id, i+1, got.Anchor, fix)
					break
				}
				tr.ReAnchor(fix)
			}
			path, err := tr.Step(in.feats)
			if err != nil {
				l.f.fail("%s step %d replay: %v", dev.id, i+1, err)
				break
			}
			pred := l.f.imuM.PredictPaths([]imu.Path{path})[0]
			tr.Commit(in.feats, pred)
			if !sameStep(got, tr, pred) {
				l.f.fail("%s step %d: answer %+v, replay %+v at step %d", dev.id, i+1, got, pred, tr.Steps())
				break
			}
		}
	}
}

func sameStep(got client.SessionState, tr *core.PathTracker, pred core.IMUPrediction) bool {
	r := got.Results[0]
	est, trav := tr.Estimate(), tr.Traveled()
	return r.Step == tr.Steps() && got.Steps == tr.Steps() &&
		r.End.X == pred.End.X && r.End.Y == pred.End.Y && r.Class == pred.Class &&
		r.Displacement.X == pred.Displacement.X && r.Displacement.Y == pred.Displacement.Y &&
		got.Position.X == est.End.X && got.Position.Y == est.End.Y && got.Class == est.Class &&
		got.Traveled.X == trav.X && got.Traveled.Y == trav.Y
}
