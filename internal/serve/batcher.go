package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"noble/internal/obs"
)

// PredictFunc answers one coalesced forward pass for a named model: R is
// the per-request row type (a fingerprint, a path), P the per-row
// prediction.
type PredictFunc[R, P any] func(model string, rows []R) ([]P, error)

// Batcher is the micro-batching engine: concurrent requests for the same
// model are packed into one batch and answered by a single batched
// forward pass. It is generic over the row and prediction types, so the
// same engine coalesces localize traffic (fingerprint rows through
// (*core.WiFiModel).PredictBatch) and track/session traffic (imu.Path
// rows through (*core.IMUModel).PredictPaths).
//
// It runs natural batching: a per-model dispatcher goroutine starts a
// pass as soon as there is work and no pass is in flight, and whatever
// queues while a pass runs becomes the next pass, up to MaxBatch rows.
// No request waits for companions on a timer: a lone request's pass
// starts at once, and under load passes run back to back, each carrying
// the requests that arrived during the previous one. The dispatcher
// exits once the queue is empty; the next request starts a fresh one.
//
// With Window <= 0 every request runs its own pass (the unbatched
// baseline); any positive Window turns coalescing on. Results are split
// back per request in arrival order. The model is resolved at flush
// time, so a batch formed across a hot reload simply runs on the newest
// generation.
type Batcher[R, P any] struct {
	Window   time.Duration // > 0 enables coalescing; it never delays a pass
	MaxBatch int

	kind    string // metrics label ("localize", "track")
	predict PredictFunc[R, P]
	metrics *Metrics

	mu     sync.Mutex
	queues map[string]*batchQueue[R, P]
}

// batchJob is one request waiting for its pass. ctx is the submitting
// request's context: the dispatcher drops a job whose ctx is already
// done when its pass forms, so an abandoned request (client gone,
// deadline expired while queued) never consumes forward-pass rows. It
// also carries the request's trace, which is how the dispatcher
// stitches the shared pass back into every rider's timeline.
type batchJob[R, P any] struct {
	ctx   context.Context
	rows  []R
	enq   time.Time // when Submit queued the job (queue_wait span start)
	preds []P
	err   error
	done  chan struct{}
}

// batchQueue accumulates jobs for one model between passes.
type batchQueue[R, P any] struct {
	jobs    []*batchJob[R, P]
	rows    int
	running bool // a dispatcher goroutine is active for this model
}

// NewBatcher builds a batcher over a predict callback. kind labels the
// batcher's passes in /metrics; metrics may be nil.
func NewBatcher[R, P any](kind string, window time.Duration, maxBatch int, predict PredictFunc[R, P], metrics *Metrics) *Batcher[R, P] {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if metrics != nil {
		metrics.registerBatchKind(kind)
	}
	return &Batcher[R, P]{
		Window:   window,
		MaxBatch: maxBatch,
		kind:     kind,
		predict:  predict,
		metrics:  metrics,
		queues:   make(map[string]*batchQueue[R, P]),
	}
}

// Submit predicts rows on the named model, sharing a forward pass with
// concurrent callers when batching is enabled. It blocks until the pass
// containing the request completes or ctx is done.
func (b *Batcher[R, P]) Submit(ctx context.Context, model string, rows []R) ([]P, error) {
	if b.Window <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		preds, err := b.run(model, rows)
		obs.AddBatchSpan(ctx, b.kind, len(rows), start, time.Now())
		return preds, err
	}

	job := &batchJob[R, P]{ctx: ctx, rows: rows, enq: time.Now(), done: make(chan struct{})}
	b.mu.Lock()
	q := b.queues[model]
	if q == nil {
		q = &batchQueue[R, P]{}
		b.queues[model] = q
	}
	q.jobs = append(q.jobs, job)
	q.rows += len(rows)
	spawn := !q.running
	if spawn {
		q.running = true
	}
	b.mu.Unlock()
	if spawn {
		go b.dispatch(model, q)
	}

	select {
	case <-job.done:
		return job.preds, job.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch drains one model's queue in passes until it is empty, then
// exits. Each pass takes whatever queued while the previous one ran.
//
// A new dispatcher yields once before its first pass, so goroutines that
// are already runnable — a burst of simultaneous requests — enqueue in
// time to join that pass instead of each waiting out the one before.
func (b *Batcher[R, P]) dispatch(model string, q *batchQueue[R, P]) {
	runtime.Gosched()
	for {
		b.mu.Lock()
		if len(q.jobs) == 0 {
			// Nothing queued behind the last pass: retire this dispatcher.
			q.running = false
			b.mu.Unlock()
			return
		}
		// Take whole jobs up to MaxBatch rows; a single oversized job
		// still goes through as its own pass. A job whose submitter is
		// already gone (context canceled or deadline expired while
		// queued) is dropped here instead of taken: its submitter has
		// returned, so running it would only waste forward-pass rows.
		var (
			take    []*batchJob[R, P]
			taken   int
			dropped int
		)
		for len(q.jobs) > 0 {
			j := q.jobs[0]
			if j.ctx.Err() != nil {
				q.jobs = q.jobs[1:]
				q.rows -= len(j.rows)
				dropped += len(j.rows)
				j.err = j.ctx.Err()
				close(j.done)
				continue
			}
			if len(take) > 0 && taken+len(j.rows) > b.MaxBatch {
				break
			}
			take = append(take, j)
			taken += len(j.rows)
			q.jobs = q.jobs[1:]
		}
		q.rows -= taken
		if len(q.jobs) == 0 {
			q.jobs = nil // let the drained backing array be reclaimed
		}
		b.mu.Unlock()

		if dropped > 0 && b.metrics != nil {
			b.metrics.ObserveBatchDrop(b.kind, dropped)
		}
		if len(take) > 0 {
			b.flush(model, take)
		}
	}
}

// flush runs one forward pass for the coalesced jobs and fans results
// back out in arrival order. Each rider's trace gets two spans from
// here: its own queue_wait (enqueue to pass start) and the shared
// batch_pass, annotated with the pass's kind and total row count —
// recorded before done is closed, so the submitting goroutine never
// observes its job finished with the spans still missing.
func (b *Batcher[R, P]) flush(model string, jobs []*batchJob[R, P]) {
	var rows []R
	for _, j := range jobs {
		rows = append(rows, j.rows...)
	}
	passStart := time.Now()
	preds, err := b.run(model, rows)
	passEnd := time.Now()
	off := 0
	for _, j := range jobs {
		if err != nil {
			j.err = err
		} else {
			j.preds = preds[off : off+len(j.rows)]
		}
		off += len(j.rows)
		obs.AddSpan(j.ctx, obs.StageQueueWait, j.enq, passStart)
		obs.AddBatchSpan(j.ctx, b.kind, len(rows), passStart, passEnd)
		close(j.done)
	}
}

// run invokes the predict callback for one batch, converting panics (e.g.
// a shape mismatch that slipped past validation) into errors so one bad
// request cannot take down the server, and records the batch size.
func (b *Batcher[R, P]) run(model string, rows []R) (preds []P, err error) {
	defer func() {
		if r := recover(); r != nil {
			preds, err = nil, fmt.Errorf("inference panic: %v", r)
		}
	}()
	if b.metrics != nil {
		b.metrics.ObserveBatch(b.kind, len(rows))
	}
	return b.predict(model, rows)
}
