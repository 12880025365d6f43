package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"noble/client"
	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/eval"
	"noble/internal/geo"
	"noble/internal/nn/qlinear"
	"noble/internal/obs"
	"noble/internal/serve"
	"noble/internal/store"
)

// noble-serve's shipped defaults, which every workload serves with.
const (
	batchWindow  = 2 * time.Millisecond
	maxBatch     = 32
	sessionTTL   = 10 * time.Minute
	mirrorRate   = 0.1
	syncInterval = 100 * time.Millisecond
	compactEvery = time.Minute
)

// server is one booted engine behind a loopback listener.
type server struct {
	reg     *serve.Registry
	engine  *serve.Engine
	journal *store.Journal // nil unless the workload journals
	http    *http.Server
	url     string
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// bootServer opens the journal (when journalDir is set), builds the
// engine over reg, and starts serving it on a fresh loopback port. With
// spans set, the HTTP handler is wrapped to record handler spans.
func bootServer(reg *serve.Registry, journalDir string, spans *spanLog) (*server, error) {
	s := &server{reg: reg}
	if journalDir != "" {
		j, err := store.Open(store.Config{
			Dir: journalDir, Fsync: store.FsyncInterval, SyncInterval: syncInterval,
			Logf: func(string, ...any) {},
		})
		if err != nil {
			return nil, fmt.Errorf("opening journal: %w", err)
		}
		if _, err := j.Recover(); err != nil {
			j.Close()
			return nil, fmt.Errorf("recovering journal: %w", err)
		}
		s.journal = j
	}
	s.engine = serve.NewEngine(serve.Config{
		Registry:    reg,
		BatchWindow: batchWindow,
		MaxBatch:    maxBatch,
		SessionTTL:  sessionTTL,
		Journal:     s.journal,
		Tracer:      obs.NewTracer(obs.Options{}),
		MirrorRate:  mirrorRate,
	})
	var h http.Handler = serve.NewServer(s.engine).Handler()
	if spans != nil {
		h = spans.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if s.journal != nil {
			s.journal.Close()
		}
		return nil, fmt.Errorf("listening: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.goRun(func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serving:", err)
		}
	})
	s.goRun(func() { s.engine.Sessions().Run(ctx, 0) })
	if s.journal != nil {
		s.goRun(func() { s.journal.Run(ctx) })
		s.goRun(func() { s.engine.RunJournalCompaction(ctx, compactEvery) })
	}
	return s, nil
}

func (s *server) goRun(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// close stops the listener, the background loops and the journal, and
// waits for every goroutine bootServer started. Later calls return the
// first call's error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.closeErr = s.http.Shutdown(ctx)
		s.cancel()
		s.wg.Wait()
		if s.journal != nil {
			if err := s.journal.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// newClient is the SDK client every workload drives the server with:
// no retries (a retried failure would hide), fast pooled transport.
func newClient(url string) *client.Client {
	return client.New(url, client.WithRetries(0, 0), client.WithFastTransport())
}

// firstAnswer sends one localize and waits for its answer; the end of
// set-up is the moment the engine answers.
func firstAnswer(c *client.Client, wifi string, reg *serve.Registry) error {
	m, ok := reg.Get(wifi)
	if !ok || m.WiFi == nil {
		return fmt.Errorf("model %s is not being served", wifi)
	}
	fp := make([]float64, m.WiFi.InputDim())
	got, err := c.Localize(context.Background(), wifi, fp)
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if len(got) != 1 || !samePosition(got[0], m.WiFi.Predict(fp)) {
		return fmt.Errorf("first request: wrong answer %+v", got)
	}
	return nil
}

// bootTimed is the set-up users pay on every boot: load the workload's
// bundles through Registry.Reload, boot the engine and listener, and
// wait for the first answer. It returns the server and setup_s.
func bootTimed(sp *spec, modelsDir, journalDir string) (*server, float64, error) {
	t0 := time.Now()
	reg := serve.NewRegistry(modelsDir, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: registry: "+format+"\n", args...)
	})
	if _, _, err := reg.Reload(); err != nil {
		return nil, 0, fmt.Errorf("loading bundles: %w", err)
	}
	for _, name := range sp.bundles() {
		if _, ok := reg.Get(name); !ok {
			return nil, 0, fmt.Errorf("bundle %s did not load", name)
		}
	}
	s, err := bootServer(reg, journalDir, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := firstAnswer(newClient(s.url), sp.wifi, reg); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0).Seconds(), nil
}

// bootLadder performs the same set-up as bootTimed one public call at a
// time and times each rung: the Wi-Fi survey regeneration, LoadBundle
// per bundle, the int8 accuracy gate, engine boot and the first answer.
// The engine serves exactly the models LoadBundle returned.
func bootLadder(sp *spec, modelsDir, journalDir string, spans *spanLog) (*server, map[string]float64, error) {
	m := map[string]float64{
		"setup.dataset_s": 0, "setup.load_bundle_s.wifi": 0, "setup.load_bundle_s.imu": 0,
		"setup.int8_gate_s": 0,
	}
	reg := serve.NewRegistry("", nil)
	for _, name := range sp.bundles() {
		dir := filepath.Join(modelsDir, name)
		man, err := readManifest(dir)
		if err != nil {
			return nil, nil, err
		}
		if man.Kind == serve.KindWiFi {
			t := time.Now()
			ds, err := man.WiFi.BuildWiFiDataset()
			if err != nil {
				return nil, nil, err
			}
			m["setup.dataset_s"] = time.Since(t).Seconds()
			if man.Precision != nil && man.Precision.Mode == core.PrecisionInt8 {
				d, err := timeInt8Gate(dir, man, ds)
				if err != nil {
					return nil, nil, err
				}
				m["setup.int8_gate_s"] = d.Seconds()
			}
		}
		t := time.Now()
		model, err := serve.LoadBundle(dir)
		if err != nil {
			return nil, nil, err
		}
		m["setup.load_bundle_s."+man.Kind] = time.Since(t).Seconds()
		reg.Add(model)
	}
	t := time.Now()
	s, err := bootServer(reg, journalDir, spans)
	if err != nil {
		return nil, nil, err
	}
	m["setup.engine_boot_ms"] = ms(time.Since(t))
	t = time.Now()
	if err := firstAnswer(newClient(s.url), sp.wifi, reg); err != nil {
		s.close()
		return nil, nil, err
	}
	m["setup.first_request_ms"] = ms(time.Since(t))
	return s, m, nil
}

func readManifest(dir string) (*serve.Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("parsing %s manifest: %w", dir, err)
	}
	if man.Kind == serve.KindWiFi && man.WiFi == nil {
		return nil, fmt.Errorf("%s: wifi bundle without wifi spec", dir)
	}
	return &man, nil
}

// timeInt8Gate times the accuracy gate LoadBundle runs on an int8 Wi-Fi
// bundle: mean test-split error at fp64, switch to int8 with the
// bundle's calibration, mean error again. The model is rebuilt from the
// already regenerated survey so the regeneration is not timed twice.
func timeInt8Gate(dir string, man *serve.Manifest, ds *dataset.WiFi) (time.Duration, error) {
	model := core.NewWiFiModel(ds, man.WiFi.Config)
	weights := man.Weights
	if weights == "" {
		weights = "weights.gob"
	}
	if err := loadFile(filepath.Join(dir, weights), model.Load); err != nil {
		return 0, err
	}
	calName := man.Precision.Calibration
	if calName == "" {
		calName = "calibration.json"
	}
	raw, err := os.ReadFile(filepath.Join(dir, calName))
	if err != nil {
		return 0, err
	}
	var cal serve.CalibrationFile
	if err := json.Unmarshal(raw, &cal); err != nil {
		return 0, fmt.Errorf("parsing calibration: %w", err)
	}
	x := dataset.FeaturesMatrix(ds.Test)
	truth := dataset.Positions(ds.Test)
	meanErr := func() float64 {
		preds := model.PredictMatrix(x)
		pos := make([]geo.Point, len(preds))
		for i, p := range preds {
			pos[i] = p.Pos
		}
		return eval.Stats(eval.Errors(pos, truth)).Mean
	}
	t := time.Now()
	fp := meanErr()
	if err := model.EnableInt8(&qlinear.Scales{Values: cal.ActScales}, nil); err != nil {
		return 0, err
	}
	q := meanErr()
	d := time.Since(t)
	if fp <= 0 || q <= 0 {
		return 0, fmt.Errorf("int8 gate replay: degenerate mean errors %v, %v", fp, q)
	}
	return d, nil
}

func loadFile(path string, load func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := load(f); err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	return nil
}

// copyBundles copies the named bundles from src into a fresh dst, so a
// registry over dst loads only the bundles the workload uses.
func copyBundles(src, dst string, names []string) error {
	for _, name := range names {
		entries, err := os.ReadDir(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, name), 0o755); err != nil {
			return err
		}
		for _, e := range entries {
			if !e.Type().IsRegular() {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(src, name, e.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, name, e.Name()), raw, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func samePosition(got client.Position, want core.WiFiPrediction) bool {
	return got.X == want.Pos.X && got.Y == want.Pos.Y && got.Class == want.Class &&
		got.Building == want.Building && got.Floor == want.Floor
}
