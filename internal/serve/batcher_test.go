package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noble/internal/obs"
)

// TestBatcherDropsCanceledJobs pins the cancellation contract: a job
// whose context is done before its pass fires is dropped from the queue
// — its rows never reach the predict callback — and the drop is counted
// in metrics.
func TestBatcherDropsCanceledJobs(t *testing.T) {
	var seen atomic.Int64
	m := NewMetrics()
	b := NewBatcher("t", 40*time.Millisecond, 64, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		out := make([]int, len(rows))
		for i, r := range rows {
			out[i] = r * 2
		}
		return out, nil
	}, m)

	// A job submitted with an already-canceled context returns
	// immediately and must be dropped when the pass forms.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(canceled, "m", []int{1, 2, 3}); err == nil {
		t.Fatal("canceled submit must return the context error")
	}

	// A live job in the same queue still gets its answer.
	got, err := b.Submit(context.Background(), "m", []int{10})
	if err != nil || len(got) != 1 || got[0] != 20 {
		t.Fatalf("live submit: got %v, %v", got, err)
	}

	if n := seen.Load(); n != 1 {
		t.Fatalf("predict saw %d rows, want 1 (canceled rows must not reach the pass)", n)
	}
	if d := m.BatchDropped("t"); d != 3 {
		t.Fatalf("dropped counter %d, want 3", d)
	}
}

// TestBatcherUnbatchedCanceled pins the Window<=0 path: an
// already-canceled context short-circuits before the pass runs.
func TestBatcherUnbatchedCanceled(t *testing.T) {
	var seen atomic.Int64
	b := NewBatcher("t", 0, 64, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		return rows, nil
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, "m", []int{1}); err == nil {
		t.Fatal("want context error")
	}
	if seen.Load() != 0 {
		t.Fatalf("predict ran %d rows for a canceled request", seen.Load())
	}
}

// TestBatcherCancellationUnderLoad hammers one queue from many
// goroutines, canceling half mid-flight, and checks conservation: every
// row submitted is either predicted or dropped, never both, and every
// surviving caller gets exactly its own answer. Run with -race in CI.
func TestBatcherCancellationUnderLoad(t *testing.T) {
	var seen atomic.Int64
	m := NewMetrics()
	b := NewBatcher("t", 2*time.Millisecond, 8, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		time.Sleep(200 * time.Microsecond) // make passes slow enough to queue behind
		out := make([]int, len(rows))
		for i, r := range rows {
			out[i] = r + 1000
		}
		return out, nil
	}, m)

	const n = 200
	var wg sync.WaitGroup
	var okCount, cancelCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if i%2 == 0 {
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*100*time.Microsecond)
			}
			defer cancel()
			got, err := b.Submit(ctx, "m", []int{i})
			if err != nil {
				cancelCount.Add(1)
				return
			}
			if len(got) != 1 || got[0] != i+1000 {
				t.Errorf("request %d: got %v", i, got)
			}
			okCount.Add(1)
		}(i)
	}
	wg.Wait()
	// Let the dispatcher retire so all drops are accounted.
	time.Sleep(10 * time.Millisecond)

	if okCount.Load()+cancelCount.Load() != n {
		t.Fatalf("accounting: %d ok + %d canceled != %d", okCount.Load(), cancelCount.Load(), n)
	}
	// Conservation: rows predicted + rows dropped covers every canceled
	// submit that was dequeued; rows predicted must include every OK
	// submit. A canceled submit may still have been predicted (the
	// cancellation raced the pass), so predicted >= ok and
	// predicted+dropped <= n.
	predicted, dropped := seen.Load(), m.BatchDropped("t")
	if predicted < okCount.Load() {
		t.Fatalf("predicted %d rows < %d successful requests", predicted, okCount.Load())
	}
	if predicted+dropped > n {
		t.Fatalf("predicted %d + dropped %d exceeds %d submitted", predicted, dropped, n)
	}
	t.Logf("n=%d ok=%d canceled=%d predicted_rows=%d dropped_rows=%d",
		n, okCount.Load(), cancelCount.Load(), predicted, dropped)
}

// TestBatcherErrorFansOut pins that a failing pass reports the error to
// every job it coalesced (regression guard on the flush fan-out).
func TestBatcherErrorFansOut(t *testing.T) {
	b := NewBatcher("t", 5*time.Millisecond, 64, func(model string, rows []int) ([]int, error) {
		return nil, fmt.Errorf("boom")
	}, nil)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), "m", []int{i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Fatalf("job %d: err %v, want boom", i, err)
		}
	}
}

// holdNextPass makes b's next forward pass block inside predict until
// release is closed; entered is closed once that pass is running. Call
// it while b has no pass in flight.
func holdNextPass[R, P any](b *Batcher[R, P]) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	inner := b.predict
	var held atomic.Bool
	b.predict = func(model string, rows []R) ([]P, error) {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return inner(model, rows)
	}
	return entered, release
}

// waitQueuedRows polls until model's queue holds want rows.
func waitQueuedRows[R, P any](t *testing.T, b *Batcher[R, P], model string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		rows := 0
		if q := b.queues[model]; q != nil {
			rows = q.rows
		}
		b.mu.Unlock()
		if rows == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d rows, want %d", rows, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBatcherLoneRequestDoesNotWait pins that Window is not a wait: a
// lone request's pass starts at once even when Window is an hour, and
// its trace shows no meaningful queue_wait.
func TestBatcherLoneRequestDoesNotWait(t *testing.T) {
	b := NewBatcher("t", time.Hour, 64, func(model string, rows []int) ([]int, error) {
		return rows, nil
	}, nil)
	tracer := obs.NewTracer(obs.Options{})
	ctx, tr := tracer.Start(context.Background(), "lone", "")
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if _, err := b.Submit(ctx, "m", []int{1}); err != nil {
		t.Fatalf("lone submit did not return within 1s: %v", err)
	}
	tr.Finish(200)
	dump, ok := findTrace(tracer.Dump(), tr.ID())
	if !ok {
		t.Fatalf("trace %s not retained", tr.ID())
	}
	sp, ok := spanOf(dump, obs.StageQueueWait)
	if !ok {
		t.Fatalf("no queue_wait span: %+v", dump.Spans)
	}
	if sp.DurationMs >= 50 {
		t.Fatalf("lone request waited %.3f ms in the queue, want < 50", sp.DurationMs)
	}
}

// TestBatcherQueuedJobsFormNextPass pins natural batching: jobs that
// queue while a pass is in flight form the next pass, taking whole jobs
// up to MaxBatch rows.
func TestBatcherQueuedJobsFormNextPass(t *testing.T) {
	cases := []struct {
		name   string
		jobs   []int // rows per queued job
		passes []int // rows per pass after the held one
	}{
		{"fit one pass", []int{8, 8, 8, 8}, []int{32}},
		{"whole jobs only", []int{20, 20, 20}, []int{20, 20, 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var passes []int
			b := NewBatcher("t", time.Millisecond, 32, func(model string, rows []int) ([]int, error) {
				mu.Lock()
				passes = append(passes, len(rows))
				mu.Unlock()
				return rows, nil
			}, nil)
			entered, release := holdNextPass(b)
			var wg sync.WaitGroup
			submit := func(n int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rows := make([]int, n)
					if got, err := b.Submit(context.Background(), "m", rows); err != nil || len(got) != n {
						t.Errorf("submit of %d rows: got %d rows, %v", n, len(got), err)
					}
				}()
			}
			submit(1)
			<-entered
			total := 0
			for _, n := range tc.jobs {
				submit(n)
				total += n
			}
			waitQueuedRows(t, b, "m", total)
			close(release)
			wg.Wait()

			mu.Lock()
			defer mu.Unlock()
			want := append([]int{1}, tc.passes...)
			if fmt.Sprint(passes) != fmt.Sprint(want) {
				t.Fatalf("pass sizes %v, want %v", passes, want)
			}
		})
	}
}

// TestBatcherDispatcherRetires pins that the dispatcher exits once the
// queue is empty rather than idling out Window: after the last answer
// the queue goes back to not running.
func TestBatcherDispatcherRetires(t *testing.T) {
	b := NewBatcher("t", time.Hour, 64, func(model string, rows []int) ([]int, error) {
		return rows, nil
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := b.Submit(ctx, "m", []int{1}); err != nil {
		t.Fatalf("lone submit did not return within 1s: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		b.mu.Lock()
		running := b.queues["m"].running
		b.mu.Unlock()
		if !running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher still running 1s after the last answer")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
