package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"noble/internal/core"
)

// Stage is a model generation's position in the deployment pipeline.
// New disk generations of an already-served name enter at StageShadow,
// are promoted to StageCanary once they have mirrored enough traffic,
// and reach StageActive (the only stage that answers user requests)
// through the atomic swap in Transition; a generation that regresses or
// is superseded ends at StageRetired. Every stage mutation in this
// package routes through applyStage (enforced by the stagegate vet
// rule), so there is exactly one place a generation can change state.
//
//vet:stagegate
type Stage string

const (
	// StageShadow mirrors sampled traffic and accumulates live error
	// scores; it never serves a user-visible response.
	StageShadow Stage = "shadow"
	// StageCanary is a promotion candidate under policy evaluation; it
	// still only sees mirrored traffic, but a regression here triggers
	// automatic rollback instead of an indefinite hold.
	StageCanary Stage = "canary"
	// StageActive serves user traffic.
	StageActive Stage = "active"
	// StageRetired is terminal: rolled back, superseded, or replaced.
	StageRetired Stage = "retired"
)

// legalTransition is the stage machine's edge set for staged
// generations. Activation of a brand-new name (From == "") and the
// demotion of a replaced active are handled inside Transition and
// placement, not by callers.
func legalTransition(from, to Stage) bool {
	switch from {
	case StageShadow:
		return to == StageCanary || to == StageRetired
	case StageCanary:
		return to == StageActive || to == StageRetired
	}
	return false
}

// LifecyclePolicy is a bundle's promotion contract, declared in its
// lifecycle.json sidecar. Zero fields take the defaults.
type LifecyclePolicy struct {
	// MinShadowRequests is how many mirrored rows plus re-anchor scores
	// a shadow generation must accumulate before it may become a canary.
	MinShadowRequests int64 `json:"min_shadow_requests"`
	// MinCanaryRequests is the evaluation window for promotion to
	// active, in the same units.
	MinCanaryRequests int64 `json:"min_canary_requests"`
	// MaxErrorDeltaM bounds how much worse (meters) the staged
	// generation's live error — re-anchor gap when fixes flow, mirror
	// divergence from the active otherwise — may be than the active's.
	MaxErrorDeltaM float64 `json:"max_error_delta_m"`
	// MaxP99DeltaMS bounds the staged generation's per-row forward-pass
	// p99 regression versus the active, in milliseconds.
	MaxP99DeltaMS float64 `json:"max_p99_delta_ms"`
}

// DefaultLifecyclePolicy is applied where a bundle declares none.
func DefaultLifecyclePolicy() LifecyclePolicy {
	return LifecyclePolicy{
		MinShadowRequests: 200,
		MinCanaryRequests: 200,
		MaxErrorDeltaM:    1.0,
		MaxP99DeltaMS:     5.0,
	}
}

// withDefaults fills zero fields from DefaultLifecyclePolicy.
func (p LifecyclePolicy) withDefaults() LifecyclePolicy {
	d := DefaultLifecyclePolicy()
	if p.MinShadowRequests <= 0 {
		p.MinShadowRequests = d.MinShadowRequests
	}
	if p.MinCanaryRequests <= 0 {
		p.MinCanaryRequests = d.MinCanaryRequests
	}
	if p.MaxErrorDeltaM <= 0 {
		p.MaxErrorDeltaM = d.MaxErrorDeltaM
	}
	if p.MaxP99DeltaMS <= 0 {
		p.MaxP99DeltaMS = d.MaxP99DeltaMS
	}
	return p
}

// LifecycleSpec is the lifecycle.json sidecar: the stage the bundle
// wants to reach and the policy gating each promotion. The file is part
// of the bundle stamp, so editing it re-registers the bundle.
type LifecycleSpec struct {
	// Target caps automatic promotion: "shadow" holds for manual
	// promotion, "canary" auto-advances out of shadow then holds,
	// "active" (the default) runs the full pipeline.
	Target string `json:"target"`
	// Immediate bypasses the pipeline entirely: the generation swaps
	// straight to active on load, the pre-lifecycle hot-reload behavior.
	// The escape hatch for hotfixes and for tooling that republishes
	// bundles it has already validated.
	Immediate bool            `json:"immediate"`
	Policy    LifecyclePolicy `json:"policy"`
}

// lifecycleFile is the per-bundle sidecar filename.
const lifecycleFile = "lifecycle.json"

// readLifecycleSpec loads a bundle's lifecycle sidecar; a missing file
// means the default full-auto pipeline.
func readLifecycleSpec(dir string) (LifecycleSpec, error) {
	spec := LifecycleSpec{Target: string(StageActive)}
	raw, err := os.ReadFile(filepath.Join(dir, lifecycleFile))
	if os.IsNotExist(err) {
		return spec, nil
	}
	if err != nil {
		return spec, fmt.Errorf("serve: reading %s: %w", lifecycleFile, err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("serve: parsing %s: %w", lifecycleFile, err)
	}
	switch Stage(spec.Target) {
	case StageShadow, StageCanary, StageActive:
	case "":
		spec.Target = string(StageActive)
	default:
		return spec, fmt.Errorf("serve: %s: unknown target stage %q", lifecycleFile, spec.Target)
	}
	return spec, nil
}

// Model is one registered inference target: exactly one of WiFi or IMU is
// set, matching Kind. A Model is one *generation* of a name — the
// registry holds at most two per name (the active one serving traffic
// and one staged shadow/canary under evaluation).
type Model struct {
	Name string
	Kind string
	WiFi *core.WiFiModel
	IMU  *core.IMUModel

	// Generation counts how many times this name has been (re)loaded;
	// LoadedAt stamps the load.
	Generation int
	LoadedAt   time.Time

	// Lifecycle state. BundleID is the content fingerprint of the
	// on-disk bundle (empty for programmatic models) — the identity that
	// survives restarts. Stage/StageSince are written only by applyStage.
	Stage      Stage
	StageSince time.Time
	BundleID   string
	// TargetStage is configuration, not live state: the stage the
	// bundle's lifecycle.json allows this generation to reach.
	//
	//vet:stagegate-exempt
	TargetStage Stage
	Policy      LifecyclePolicy

	// Stats accumulates this generation's live evaluation evidence:
	// mirrored rows, re-anchor scores, divergence, pass latency.
	Stats *GenStats
}

// ModelInfo is the JSON-facing summary of a registered model.
type ModelInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Precision  string `json:"precision"` // "fp64" or "int8"
	Classes    int    `json:"classes"`
	FLOPs      int64  `json:"flops"`
	Generation int    `json:"generation"`
	LoadedAt   string `json:"loaded_at"`
	Stage      string `json:"stage"`
	BundleID   string `json:"bundle_id,omitempty"`

	// Wi-Fi only.
	InputDim  int `json:"input_dim,omitempty"`
	Buildings int `json:"buildings,omitempty"`
	Floors    int `json:"floors,omitempty"`

	// IMU only.
	MaxSegments int `json:"max_segments,omitempty"`
	SegmentDim  int `json:"segment_dim,omitempty"`

	// Lifecycle carries the live evaluation evidence and promotion
	// policy; populated by ListLifecycle (the /v2 and /debug views), not
	// by the legacy /v1 listing.
	Lifecycle *LifecycleInfo `json:"lifecycle,omitempty"`
}

// LifecycleInfo is one generation's deployment state as JSON: where it
// is in the pipeline, what it is allowed to reach, and the evidence the
// promotion controller weighs.
type LifecycleInfo struct {
	Stage           string          `json:"stage"`
	Target          string          `json:"target"`
	Since           string          `json:"since"`
	MirroredRows    int64           `json:"mirrored_rows"`
	ReAnchorScores  int64           `json:"reanchor_scores"`
	MeanErrorM      float64         `json:"mean_error_m"`
	MeanDivergenceM float64         `json:"mean_divergence_m"`
	P99PassMS       float64         `json:"p99_pass_ms"`
	DroppedMirrors  int64           `json:"dropped_mirrors"`
	Policy          LifecyclePolicy `json:"policy"`
}

// Info summarizes the model.
func (m *Model) Info() ModelInfo {
	info := ModelInfo{
		Name:       m.Name,
		Kind:       m.Kind,
		Generation: m.Generation,
		LoadedAt:   m.LoadedAt.UTC().Format(time.RFC3339),
		Stage:      string(m.Stage),
		BundleID:   m.BundleID,
	}
	switch {
	case m.WiFi != nil:
		info.Precision = m.WiFi.Precision()
		info.Classes = m.WiFi.Classes()
		info.FLOPs = m.WiFi.FLOPs()
		info.InputDim = m.WiFi.InputDim()
		info.Buildings = m.WiFi.NumBuildings()
		info.Floors = m.WiFi.NumFloors()
	case m.IMU != nil:
		info.Precision = m.IMU.Precision()
		info.Classes = m.IMU.Classes()
		info.FLOPs = m.IMU.FLOPs()
		info.MaxSegments = m.IMU.MaxLen()
		info.SegmentDim = m.IMU.SegmentDim()
	}
	return info
}

// lifecycleInfo builds the full lifecycle view of this generation.
func (m *Model) lifecycleInfo() ModelInfo {
	info := m.Info()
	snap := m.Stats.Snapshot()
	info.Lifecycle = &LifecycleInfo{
		Stage:           string(m.Stage),
		Target:          string(m.TargetStage),
		Since:           snap.Since.UTC().Format(time.RFC3339),
		MirroredRows:    snap.Mirrored,
		ReAnchorScores:  snap.Scores,
		MeanErrorM:      snap.MeanErrorM,
		MeanDivergenceM: snap.MeanDivergenceM,
		P99PassMS:       snap.P99PassMS,
		DroppedMirrors:  snap.Dropped,
		Policy:          m.Policy,
	}
	return info
}

// bundleStamp fingerprints a whole bundle directory for change
// detection: one sorted line per regular payload file (name, size,
// mtime). Fingerprinting EVERY payload file — not just manifest and
// weights — matters for multi-file bundles: republishing only the
// calibration artifact of an int8 bundle (or editing lifecycle.json)
// must register as a change, or the watcher would keep serving stale
// scales (and the failed-load backoff would never retry a bundle fixed
// by rewriting one side file).
type bundleStamp string

// bundleIDFor reduces a stamp to the short content fingerprint used as
// the generation's durable identity in WAL lifecycle events.
func bundleIDFor(stamp bundleStamp) string {
	h := fnv.New64a()
	io.WriteString(h, string(stamp))
	return strconv.FormatUint(h.Sum64(), 16)
}

// TransitionEvent describes one stage change, delivered to the
// OnTransition hook (which the engine uses to journal WAL lifecycle
// events). From is empty for a generation's initial placement.
type TransitionEvent struct {
	Model    string
	BundleID string
	From     Stage
	To       Stage
	Reason   string
	Time     time.Time
}

// deployment is one name's live generations: the active one serving
// traffic and at most one staged shadow/canary under evaluation.
type deployment struct {
	active *Model
	staged *Model
	gens   int // per-name generation counter
}

// Registry holds the live models. Lookups take a read lock; reloads build
// replacement models entirely off the request path and place them in the
// deployment pipeline under a write lock, so a hot reload is atomic from
// a request's point of view and a new generation of an existing name
// starts in shadow rather than swapping in.
type Registry struct {
	dir  string
	logf func(format string, args ...any)

	mu        sync.RWMutex
	deps      map[string]*deployment
	stamps    map[string]bundleStamp // latest placed stamp per name (disk bundles only)
	failed    map[string]bundleStamp // last load failure per name (reload backoff)
	recovered map[string]Stage       // name+NUL+bundleID → stage recovered from the WAL
	counts    map[string]int64       // transition counter per model+NUL+to-stage
	// retiredDisk remembers, per name, a rolled-back bundle whose bytes
	// are still the name's on-disk publish. Its stamp stays recorded (so
	// Reload does not resurrect it) and compaction carries its retired
	// lifecycle event forward (so a restart does not either). Cleared
	// when new bytes are published.
	retiredDisk map[string]string

	// hookMu serializes OnTransition deliveries so journaled lifecycle
	// events keep transition order without holding mu across I/O.
	hookMu       sync.Mutex
	onTransition func(TransitionEvent)
}

// NewRegistry returns a registry over a bundle directory. dir may be empty
// for a purely programmatic registry (tests, demo mode). logf defaults to
// log.Printf.
func NewRegistry(dir string, logf func(format string, args ...any)) *Registry {
	if logf == nil {
		logf = log.Printf
	}
	return &Registry{
		dir:         dir,
		logf:        logf,
		deps:        make(map[string]*deployment),
		stamps:      make(map[string]bundleStamp),
		failed:      make(map[string]bundleStamp),
		recovered:   make(map[string]Stage),
		counts:      make(map[string]int64),
		retiredDisk: make(map[string]string),
	}
}

// SetOnTransition installs the stage-change hook (at most one; the
// engine uses it to journal WAL lifecycle events). Call before serving.
func (r *Registry) SetOnTransition(fn func(TransitionEvent)) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.onTransition = fn
}

// SetRecoveredStages seeds the stages recovered from the WAL (keyed
// name+NUL+bundleID, see RecoveredStages) so the first Reload after a
// restart re-places each on-disk bundle at the stage it held at the
// crash instead of re-running the pipeline from scratch.
func (r *Registry) SetRecoveredStages(stages map[string]Stage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range stages {
		r.recovered[k] = v
	}
}

// recoveredKey builds the recovered-stage map key.
func recoveredKey(name, bundleID string) string { return name + "\x00" + bundleID }

// fire delivers transition events to the hook, in order, and logs them.
func (r *Registry) fire(evs []TransitionEvent) {
	if len(evs) == 0 {
		return
	}
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, ev := range evs {
		from := string(ev.From)
		if from == "" {
			from = "(new)"
		}
		r.logf("serve: lifecycle: model %s bundle %s %s -> %s: %s", ev.Model, ev.BundleID, from, ev.To, ev.Reason)
		if r.onTransition != nil {
			r.onTransition(ev)
		}
	}
}

// applyStage performs the raw stage write for one generation and resets
// its evaluation stats (each stage is judged on its own window). This is
// the package's single stage-mutation point — the stagegate vet rule
// refuses Stage-field writes anywhere else.
//
//vet:stagegate-transition
func applyStage(m *Model, to Stage, now time.Time) {
	m.Stage = to
	m.StageSince = now
	if m.Stats != nil && to != StageRetired {
		m.Stats.reset(now)
	}
}

// noteTransitionLocked counts a transition for the Prometheus view and
// builds its event. Caller holds r.mu.
func (r *Registry) noteTransitionLocked(m *Model, from Stage, reason string, now time.Time) TransitionEvent {
	r.counts[m.Name+"\x00"+string(m.Stage)]++
	return TransitionEvent{
		Model:    m.Name,
		BundleID: m.BundleID,
		From:     from,
		To:       m.Stage,
		Reason:   reason,
		Time:     now,
	}
}

// Transition moves a name's staged generation to the given stage — the
// single entry point for every stage change after placement. Legal
// moves: shadow→canary, canary→active (the atomic swap: the old active
// retires and the canary takes over user traffic), and shadow/canary→
// retired (rollback or supersession). The promotion controller
// (internal/serve/lifecycle) is the policy-driven caller; the admin
// endpoints call it for manual overrides.
func (r *Registry) Transition(name string, to Stage, reason string) error {
	now := time.Now()
	r.mu.Lock()
	evs, toArchive, err := r.transitionLocked(name, to, reason, now)
	r.mu.Unlock()
	if toArchive != "" {
		r.archiveActive(name, toArchive)
	}
	r.fire(evs)
	return err
}

// transitionLocked applies one staged-generation transition under r.mu,
// returning the events to deliver and (for promotions) the bundle ID
// whose payload must be archived as the new on-disk active.
func (r *Registry) transitionLocked(name string, to Stage, reason string, now time.Time) ([]TransitionEvent, string, error) {
	dep := r.deps[name]
	if dep == nil || dep.staged == nil {
		return nil, "", fmt.Errorf("serve: model %q has no staged generation", name)
	}
	st := dep.staged
	from := st.Stage
	if !legalTransition(from, to) {
		return nil, "", fmt.Errorf("serve: model %q: illegal transition %s -> %s", name, from, to)
	}
	var evs []TransitionEvent
	var toArchive string
	switch to {
	case StageCanary, StageRetired:
		applyStage(st, to, now)
		evs = append(evs, r.noteTransitionLocked(st, from, reason, now))
		if to == StageRetired {
			dep.staged = nil
			if st.BundleID != "" && r.stamps[name] != "" {
				// The staged generation is always the name's latest disk
				// publish, so its rolled-back bytes are what is on disk now.
				r.retiredDisk[name] = st.BundleID
			}
		}
	case StageActive:
		if old := dep.active; old != nil {
			oldFrom := old.Stage
			applyStage(old, StageRetired, now)
			evs = append(evs, r.noteTransitionLocked(old, oldFrom, "superseded by promoted canary "+st.BundleID, now))
		}
		applyStage(st, StageActive, now)
		dep.active = st
		dep.staged = nil
		evs = append(evs, r.noteTransitionLocked(st, from, reason, now))
		if st.BundleID != "" && r.dir != "" {
			toArchive = st.BundleID
		}
	}
	return evs, toArchive, nil
}

// PromoteStaged advances a name's staged generation one stage (shadow→
// canary, canary→active) regardless of policy — the manual override
// behind `noble-serve -promote` and POST /admin/lifecycle/{model}/promote.
func (r *Registry) PromoteStaged(name, reason string) (Stage, error) {
	r.mu.RLock()
	dep := r.deps[name]
	var from Stage
	if dep != nil && dep.staged != nil {
		from = dep.staged.Stage
	}
	r.mu.RUnlock()
	var to Stage
	switch from {
	case StageShadow:
		to = StageCanary
	case StageCanary:
		to = StageActive
	default:
		return "", fmt.Errorf("serve: model %q has no promotable staged generation", name)
	}
	if err := r.Transition(name, to, reason); err != nil {
		return "", err
	}
	return to, nil
}

// RollbackStaged retires a name's staged generation — the manual
// override behind `noble-serve -rollback` and the admin endpoint.
func (r *Registry) RollbackStaged(name, reason string) error {
	return r.Transition(name, StageRetired, reason)
}

// Add registers (or replaces) a model programmatically, straight to
// active — the pre-lifecycle semantics tests, demo mode, and the bench
// rig rely on.
func (r *Registry) Add(m *Model) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepare(m)
	dep := r.ensureDepLocked(m.Name)
	dep.gens++
	m.Generation = dep.gens
	if m.LoadedAt.IsZero() {
		m.LoadedAt = now
	}
	if old := dep.active; old != nil {
		applyStage(old, StageRetired, now)
	}
	applyStage(m, StageActive, now)
	dep.active = m
}

// AddStaged registers a staged generation programmatically at the given
// stage (shadow or canary) next to the name's current active — the
// seam tests and the bench rig's shadow-mirror scenario use to stage a
// generation without a bundle directory.
func (r *Registry) AddStaged(m *Model, stage Stage) error {
	if stage != StageShadow && stage != StageCanary {
		return fmt.Errorf("serve: AddStaged wants shadow or canary, got %q", stage)
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	dep := r.deps[m.Name]
	if dep == nil || dep.active == nil {
		return fmt.Errorf("serve: staging %q without an active generation", m.Name)
	}
	r.prepare(m)
	dep.gens++
	m.Generation = dep.gens
	if m.LoadedAt.IsZero() {
		m.LoadedAt = now
	}
	if old := dep.staged; old != nil {
		applyStage(old, StageRetired, now)
	}
	applyStage(m, stage, now)
	dep.staged = m
	return nil
}

// prepare fills a model's lifecycle defaults.
func (r *Registry) prepare(m *Model) {
	if m.Stats == nil {
		m.Stats = newGenStats()
	}
	if m.TargetStage == "" {
		m.TargetStage = StageActive
	}
	m.Policy = m.Policy.withDefaults()
}

func (r *Registry) ensureDepLocked(name string) *deployment {
	dep := r.deps[name]
	if dep == nil {
		dep = &deployment{}
		r.deps[name] = dep
	}
	return dep
}

// Get resolves a name to its ACTIVE generation — the only one user
// traffic may be answered from.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil || dep.active == nil {
		return nil, false
	}
	return dep.active, true
}

// Staged resolves a name's staged (shadow or canary) generation, if any.
func (r *Registry) Staged(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil || dep.staged == nil {
		return nil, false
	}
	return dep.staged, true
}

// genKey builds the batcher queue key addressing one exact generation,
// so mirrored rows coalesce into their own passes instead of the
// active's. The NUL separator cannot appear in a model name that
// arrived as an HTTP path segment.
func genKey(name string, generation int) string {
	return name + "\x00" + strconv.Itoa(generation)
}

// splitGenKey parses a batcher queue key; ok is false for plain names.
func splitGenKey(key string) (name string, generation int, ok bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return key, 0, false
	}
	gen, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return key[:i], 0, false
	}
	return key[:i], gen, true
}

// ResolveGen resolves a batcher queue key: a plain name maps to the
// active generation (so batches formed across a promotion run on the
// newest active), a generation-qualified key maps to that exact live
// generation (active or staged) and misses once it is retired.
func (r *Registry) ResolveGen(key string) (*Model, bool) {
	name, gen, qualified := splitGenKey(key)
	if !qualified {
		return r.Get(name)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil {
		return nil, false
	}
	if dep.active != nil && dep.active.Generation == gen {
		return dep.active, true
	}
	if dep.staged != nil && dep.staged.Generation == gen {
		return dep.staged, true
	}
	return nil, false
}

// Len returns the number of names with an active generation.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, dep := range r.deps {
		if dep.active != nil {
			n++
		}
	}
	return n
}

// List returns active-generation summaries sorted by name — the user
// visible catalog (/v1/models).
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.deps))
	for _, dep := range r.deps {
		if dep.active != nil {
			out = append(out, dep.active.Info())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ListLifecycle returns the full deployment view: every live generation
// (active and staged) with its lifecycle evidence, sorted by name then
// generation. This backs /v2/models and the /debug/lifecycle view.
func (r *Registry) ListLifecycle() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.deps)*2)
	for _, dep := range r.deps {
		if dep.active != nil {
			out = append(out, dep.active.lifecycleInfo())
		}
		if dep.staged != nil {
			out = append(out, dep.staged.lifecycleInfo())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Generation < out[j].Generation
	})
	return out
}

// GenStatus is one generation's deployment state as data — what the
// promotion controller weighs.
type GenStatus struct {
	Name       string
	Generation int
	BundleID   string
	Kind       string
	Stage      Stage
	Target     Stage
	Policy     LifecyclePolicy
	Stats      GenStatsSnapshot
}

// DeploymentStatus pairs a name's live generations.
type DeploymentStatus struct {
	Name   string
	Active *GenStatus
	Staged *GenStatus
}

func genStatus(m *Model) *GenStatus {
	if m == nil {
		return nil
	}
	return &GenStatus{
		Name:       m.Name,
		Generation: m.Generation,
		BundleID:   m.BundleID,
		Kind:       m.Kind,
		Stage:      m.Stage,
		Target:     m.TargetStage,
		Policy:     m.Policy,
		Stats:      m.Stats.Snapshot(),
	}
}

// Deployments snapshots every name's live generations, sorted by name.
func (r *Registry) Deployments() []DeploymentStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DeploymentStatus, 0, len(r.deps))
	for name, dep := range r.deps {
		out = append(out, DeploymentStatus{
			Name:   name,
			Active: genStatus(dep.active),
			Staged: genStatus(dep.staged),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reload scans the bundle directory, loads new or changed bundles, and
// places each in the deployment pipeline: a brand-new name (or an
// `immediate` sidecar) activates directly; a changed bundle of a served
// name enters shadow; a bundle whose stage was recovered from the WAL
// resumes at that stage, with the previously-archived active restored
// next to it. Entries whose directories disappeared are dropped. Each
// bundle is rebuilt outside the lock; a bundle that fails to load is
// logged ONCE per distinct broken generation — its stamp is remembered
// and the bundle is not re-read until it changes on disk — and its
// previous generation (if any) keeps serving. It returns how many
// bundles were loaded or replaced and how many were removed.
func (r *Registry) Reload() (loaded, removed int, err error) {
	if r.dir == "" {
		return 0, 0, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return 0, 0, err
	}
	onDisk := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(r.dir, name)
		stamp, ok := stampBundle(dir)
		if !ok {
			continue // no manifest yet (or mid-write); not a bundle
		}
		onDisk[name] = true

		r.mu.RLock()
		prev, seen := r.stamps[name]
		badPrev, wasBad := r.failed[name]
		r.mu.RUnlock()
		if seen && prev == stamp {
			continue
		}
		if wasBad && badPrev == stamp {
			// This exact broken generation already failed and was logged;
			// re-loading it every poll would spam the log and burn CPU
			// rebuilding a bundle that cannot change without its stamp
			// changing. A republish (new stamp) retries immediately.
			continue
		}

		model, lerr := LoadBundle(dir)
		if lerr != nil {
			r.mu.Lock()
			r.failed[name] = stamp
			r.mu.Unlock()
			r.logf("%v (previous generation keeps serving; will not retry until the bundle changes)", lerr)
			continue
		}
		spec, serr := readLifecycleSpec(dir)
		if serr != nil {
			r.mu.Lock()
			r.failed[name] = stamp
			r.mu.Unlock()
			r.logf("serve: bundle %s: %v (previous generation keeps serving; will not retry until the bundle changes)", name, serr)
			continue
		}
		// A publish renames weights into place before the manifest, so a
		// scan racing a republish can read an old manifest next to new
		// weights. If the bundle changed underneath the load, discard
		// the result and leave the stamp unrecorded — the next poll sees
		// the settled bundle and loads it coherently.
		if after, ok := stampBundle(dir); !ok || after != stamp {
			r.logf("serve: bundle %s changed during load, retrying next poll", name)
			continue
		}
		r.place(name, model, spec, stamp)
		loaded++
	}
	// Drop disk-backed models whose bundle vanished. Programmatic models
	// (no stamp) are untouched.
	r.mu.Lock()
	for name := range r.stamps {
		if !onDisk[name] {
			delete(r.stamps, name)
			delete(r.deps, name)
			delete(r.retiredDisk, name)
			removed++
		}
	}
	for name := range r.failed {
		if !onDisk[name] {
			delete(r.failed, name)
		}
	}
	r.mu.Unlock()
	return loaded, removed, nil
}

// place installs a freshly-loaded bundle generation into its name's
// deployment, picking its entry stage, and fires the resulting
// transition events.
func (r *Registry) place(name string, m *Model, spec LifecycleSpec, stamp bundleStamp) {
	now := time.Now()
	m.BundleID = bundleIDFor(stamp)
	m.Policy = spec.Policy.withDefaults()
	m.TargetStage = Stage(spec.Target)
	m.Stats = newGenStats()
	m.LoadedAt = now

	// Consult the WAL-recovered stage before deciding placement; if the
	// crash left this exact bundle staged (or rolled back), the previous
	// active's payload lives in the bundle's .active archive — load it
	// outside the lock so it can serve alongside the resumed stage.
	r.mu.RLock()
	recStage, hasRec := r.recovered[recoveredKey(name, m.BundleID)]
	r.mu.RUnlock()
	var archived *Model
	if hasRec && recStage != StageActive {
		var aerr error
		archived, aerr = r.loadArchivedActive(name)
		if aerr != nil {
			r.logf("serve: bundle %s: recovered stage %s but no usable archived active (%v); activating the on-disk bundle instead", name, recStage, aerr)
			hasRec = false
		}
	}

	r.mu.Lock()
	evs, toArchive := r.placeLocked(name, m, recStage, hasRec, archived, spec.Immediate, stamp, now)
	r.mu.Unlock()
	if toArchive != "" {
		r.archiveActive(name, toArchive)
	}
	r.fire(evs)
}

// placeLocked decides and applies a loaded generation's entry stage
// under r.mu. It returns the transition events to deliver and the
// bundle ID to archive when this placement activated a disk bundle.
func (r *Registry) placeLocked(name string, m *Model, recStage Stage, hasRec bool, archived *Model, immediate bool, stamp bundleStamp, now time.Time) ([]TransitionEvent, string) {
	dep := r.ensureDepLocked(name)
	var evs []TransitionEvent
	var toArchive string
	// New bytes on disk supersede any rolled-back publish (the retired
	// branch below re-records itself).
	delete(r.retiredDisk, name)

	install := func(mm *Model, st Stage, reason string) {
		dep.gens++
		mm.Generation = dep.gens
		applyStage(mm, st, now)
		if st == StageActive {
			if old := dep.active; old != nil && old != mm {
				oldFrom := old.Stage
				applyStage(old, StageRetired, now)
				evs = append(evs, r.noteTransitionLocked(old, oldFrom, "replaced by "+mm.BundleID, now))
			}
			dep.active = mm
		} else {
			if old := dep.staged; old != nil && old != mm {
				oldFrom := old.Stage
				applyStage(old, StageRetired, now)
				evs = append(evs, r.noteTransitionLocked(old, oldFrom, "superseded by newer publish "+mm.BundleID, now))
			}
			dep.staged = mm
		}
		evs = append(evs, r.noteTransitionLocked(mm, "", reason, now))
	}

	switch {
	case hasRec && recStage == StageActive:
		install(m, StageActive, "recovered active stage from journal")
		toArchive = m.BundleID
	case hasRec && (recStage == StageShadow || recStage == StageCanary):
		install(archived, StageActive, "restored archived active alongside recovered "+string(recStage))
		install(m, recStage, "recovered "+string(recStage)+" stage from journal")
	case hasRec && recStage == StageRetired:
		// A rolled-back bundle must not resurrect; the archived active
		// serves, and the stamp below stops per-poll reloads of the
		// retired bytes.
		install(archived, StageActive, "restored archived active; on-disk bundle "+m.BundleID+" stays retired")
		r.retiredDisk[name] = m.BundleID
	case immediate || dep.active == nil:
		reason := "initial load"
		if immediate && dep.active != nil {
			reason = "immediate swap (lifecycle.json immediate)"
		}
		install(m, StageActive, reason)
		toArchive = m.BundleID
	default:
		install(m, StageShadow, "new generation of a served model enters shadow")
	}

	r.stamps[name] = stamp
	delete(r.failed, name) // healthy again; future failures log anew
	delete(r.recovered, recoveredKey(name, m.BundleID))
	return evs, toArchive
}

// RetiredDisk returns, per name, the bundle ID of a rolled-back publish
// whose bytes are still the name's on-disk state — what compaction
// carry-forward must keep recorded as retired.
func (r *Registry) RetiredDisk() map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(r.retiredDisk))
	for k, v := range r.retiredDisk {
		out[k] = v
	}
	return out
}

// FailedBundles returns the names of bundles whose latest on-disk
// generation failed to load (sorted). A non-empty result means the
// directory contains bundles the registry refused — the signal
// `noble-serve -check-bundles` and the CI accuracy gate exit non-zero
// on, and what the noble_registry_broken_bundles gauge counts.
func (r *Registry) FailedBundles() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.failed))
	for name := range r.failed {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WritePrometheus emits the registry's deployment state: one info-style
// gauge per live generation (active and staged), the broken-bundle
// gauge, and the lifecycle evaluation series (stage-labeled re-anchor
// error histogram, mirror divergence, pass latency, transition counts).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	type gen struct {
		info ModelInfo
		snap GenStatsSnapshot
	}
	gens := make([]gen, 0, len(r.deps)*2)
	for _, dep := range r.deps {
		if dep.active != nil {
			gens = append(gens, gen{dep.active.Info(), dep.active.Stats.Snapshot()})
		}
		if dep.staged != nil {
			gens = append(gens, gen{dep.staged.Info(), dep.staged.Stats.Snapshot()})
		}
	}
	broken := len(r.failed)
	counts := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	r.mu.RUnlock()
	sort.Slice(gens, func(i, j int) bool {
		if gens[i].info.Name != gens[j].info.Name {
			return gens[i].info.Name < gens[j].info.Name
		}
		return gens[i].info.Generation < gens[j].info.Generation
	})

	fmt.Fprintln(w, "# HELP noble_model_info Live model generations: precision tier, generation, and lifecycle stage per bundle (value is always 1).")
	fmt.Fprintln(w, "# TYPE noble_model_info gauge")
	for _, g := range gens {
		fmt.Fprintf(w, "noble_model_info{name=%q,kind=%q,precision=%q,generation=\"%d\",stage=%q} 1\n",
			g.info.Name, g.info.Kind, g.info.Precision, g.info.Generation, g.info.Stage)
	}

	fmt.Fprintln(w, "# HELP noble_registry_broken_bundles Bundle directories whose latest on-disk generation the registry refused to load.")
	fmt.Fprintln(w, "# TYPE noble_registry_broken_bundles gauge")
	fmt.Fprintf(w, "noble_registry_broken_bundles %d\n", broken)

	fmt.Fprintln(w, "# HELP noble_lifecycle_transitions_total Generation stage transitions, by model and destination stage.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_transitions_total counter")
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		model, to, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(w, "noble_lifecycle_transitions_total{model=%q,to=%q} %d\n", model, to, counts[k])
	}

	fmt.Fprintln(w, "# HELP noble_lifecycle_mirrored_rows_total Rows mirrored through shadow/canary generations, by model and stage.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_mirrored_rows_total counter")
	for _, g := range gens {
		fmt.Fprintf(w, "noble_lifecycle_mirrored_rows_total{model=%q,stage=%q} %d\n", g.info.Name, g.info.Stage, g.snap.Mirrored)
	}

	fmt.Fprintln(w, "# HELP noble_lifecycle_reanchor_error_meters Live model error at WiFi re-anchor fixes (gap between the generation's prediction and the fix), by model and stage.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_reanchor_error_meters histogram")
	for _, g := range gens {
		var cum int64
		for i, le := range lifecycleErrorBuckets {
			cum += g.snap.ErrorHist[i]
			fmt.Fprintf(w, "noble_lifecycle_reanchor_error_meters_bucket{model=%q,stage=%q,le=\"%g\"} %d\n", g.info.Name, g.info.Stage, le, cum)
		}
		fmt.Fprintf(w, "noble_lifecycle_reanchor_error_meters_bucket{model=%q,stage=%q,le=\"+Inf\"} %d\n", g.info.Name, g.info.Stage, g.snap.Scores)
		fmt.Fprintf(w, "noble_lifecycle_reanchor_error_meters_sum{model=%q,stage=%q} %.6f\n", g.info.Name, g.info.Stage, g.snap.ErrorSumM)
		fmt.Fprintf(w, "noble_lifecycle_reanchor_error_meters_count{model=%q,stage=%q} %d\n", g.info.Name, g.info.Stage, g.snap.Scores)
	}

	fmt.Fprintln(w, "# HELP noble_lifecycle_divergence_meters Mirrored-prediction divergence from the active generation, by model and stage.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_divergence_meters summary")
	for _, g := range gens {
		fmt.Fprintf(w, "noble_lifecycle_divergence_meters_sum{model=%q,stage=%q} %.6f\n", g.info.Name, g.info.Stage, g.snap.DivergenceSumM)
		fmt.Fprintf(w, "noble_lifecycle_divergence_meters_count{model=%q,stage=%q} %d\n", g.info.Name, g.info.Stage, g.snap.DivergenceN)
	}

	fmt.Fprintln(w, "# HELP noble_lifecycle_pass_latency_ms Per-row forward-pass latency p99 over a sliding window, by model generation stage.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_pass_latency_ms gauge")
	for _, g := range gens {
		fmt.Fprintf(w, "noble_lifecycle_pass_latency_ms{model=%q,stage=%q,quantile=\"0.99\"} %.6f\n", g.info.Name, g.info.Stage, g.snap.P99PassMS)
	}

	fmt.Fprintln(w, "# HELP noble_lifecycle_dropped_mirrors_total Mirror submissions dropped by the in-flight cap or mirror failures, by model.")
	fmt.Fprintln(w, "# TYPE noble_lifecycle_dropped_mirrors_total counter")
	for _, g := range gens {
		if g.info.Stage == string(StageActive) {
			continue
		}
		fmt.Fprintf(w, "noble_lifecycle_dropped_mirrors_total{model=%q} %d\n", g.info.Name, g.snap.Dropped)
	}
}

// Watch polls Reload at the given interval until ctx is canceled. Each
// poll's broken-bundle state is surfaced through the
// noble_registry_broken_bundles gauge (backed by FailedBundles), not
// just the one-shot load-failure log line, so a stuck-broken canary
// stays visible to scrapes.
func (r *Registry) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 || r.dir == "" {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if loaded, removed, err := r.Reload(); err != nil {
				r.logf("serve: reload scan: %v", err)
			} else if loaded+removed > 0 {
				r.logf("serve: hot reload: %d bundle(s) loaded, %d removed", loaded, removed)
			}
		}
	}
}

// stampBundle fingerprints every regular file in a bundle dir
// (in-progress ".tmp-*" temporaries excluded; the .active archive
// subdirectory is invisible, like any subdirectory). ok is false when
// the dir is not (yet) a complete bundle: no manifest, or the
// manifest's declared weights file is missing.
func stampBundle(dir string) (bundleStamp, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return "", false
	}
	weights := defaultWeightsFile
	var man Manifest
	if json.Unmarshal(raw, &man) == nil && man.Weights != "" {
		weights = man.Weights
	}
	if _, err := os.Stat(filepath.Join(dir, weights)); err != nil {
		return "", false
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	var b strings.Builder
	for _, e := range entries { // ReadDir sorts by name
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return "", false // racing a republish; settle next poll
		}
		fmt.Fprintf(&b, "%s\x00%d\x00%d\n", e.Name(), fi.Size(), fi.ModTime().UnixNano())
	}
	return bundleStamp(b.String()), true
}

// --- activation archive ----------------------------------------------
//
// A name has exactly one bundle directory, so publishing a shadow
// generation overwrites the active generation's bytes on disk. To make
// staged deployments crash-safe, activating a disk bundle copies its
// payload into the bundle's .active/ subdirectory (invisible to
// stampBundle, which skips subdirectories). After a crash with a
// generation still staged (or freshly rolled back), Reload restores the
// archived payload as the serving active next to the resumed stage.

// activeArchiveDir is the per-bundle archive subdirectory.
const activeArchiveDir = ".active"

// archiveIDFile records the archived payload's bundle ID.
const archiveIDFile = "bundle.id"

// archiveActive copies the bundle's current payload files into its
// .active archive; a failure is logged, not fatal (the in-memory active
// keeps serving; only crash recovery of a staged state degrades).
func (r *Registry) archiveActive(name, bundleID string) {
	if r.dir == "" {
		return
	}
	src := filepath.Join(r.dir, name)
	dst := filepath.Join(src, activeArchiveDir)
	if raw, err := os.ReadFile(filepath.Join(dst, archiveIDFile)); err == nil && strings.TrimSpace(string(raw)) == bundleID {
		return // this exact payload is already archived
	}
	if err := copyBundlePayload(src, dst, bundleID); err != nil {
		r.logf("serve: archiving active payload of %s: %v", name, err)
	}
}

// copyBundlePayload copies every regular payload file of a bundle into
// dst and records the payload's bundle ID, each file written atomically.
func copyBundlePayload(src, dst, bundleID string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		err = atomicWrite(filepath.Join(dst, e.Name()), func(f *os.File) error {
			_, cerr := io.Copy(f, in)
			return cerr
		})
		in.Close()
		if err != nil {
			return err
		}
	}
	return atomicWrite(filepath.Join(dst, archiveIDFile), func(f *os.File) error {
		_, err := io.WriteString(f, bundleID+"\n")
		return err
	})
}

// loadArchivedActive rebuilds the archived active generation of a name.
func (r *Registry) loadArchivedActive(name string) (*Model, error) {
	dir := filepath.Join(r.dir, name, activeArchiveDir)
	raw, err := os.ReadFile(filepath.Join(dir, archiveIDFile))
	if err != nil {
		return nil, fmt.Errorf("no archived active payload: %w", err)
	}
	m, err := LoadBundle(dir)
	if err != nil {
		return nil, fmt.Errorf("loading archived active payload: %w", err)
	}
	m.Name = name // the archive dir's base name is .active, not the model
	m.BundleID = strings.TrimSpace(string(raw))
	m.Policy = DefaultLifecyclePolicy()
	m.TargetStage = StageActive
	m.Stats = newGenStats()
	m.LoadedAt = time.Now()
	return m, nil
}

// --- per-generation evaluation stats ---------------------------------

// lifecycleErrorBuckets are the re-anchor error histogram's upper
// bounds, in meters (indoor scale: half a meter up to a wing of a
// building).
var lifecycleErrorBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32}

// numErrorBuckets = len(lifecycleErrorBuckets) + 1 overflow; asserted in
// TestGenStats.
const numErrorBuckets = 8

// passLatencyWindow is the per-generation latency ring size (per-row
// forward-pass samples backing the p99 gauge).
const passLatencyWindow = 2048

// GenStats accumulates one generation's live evaluation evidence. All
// methods are safe for concurrent use; reset starts a fresh window on
// each stage entry so every stage is judged on its own evidence.
type GenStats struct {
	mu       sync.Mutex
	since    time.Time
	mirrored int64 // mirrored rows evaluated
	scores   int64 // re-anchor fixes scored
	scoreSum float64
	errHist  [numErrorBuckets]int64
	divSum   float64 // divergence vs the active's predictions, meters
	divN     int64
	dropped  int64     // mirror submissions dropped (cap or failure)
	lat      []float64 // per-row pass latency, ms, sliding ring
	latN     int64
}

func newGenStats() *GenStats {
	return &GenStats{since: time.Now(), lat: make([]float64, 0, passLatencyWindow)}
}

// reset starts a fresh evaluation window.
func (g *GenStats) reset(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.since = now
	g.mirrored, g.scores, g.scoreSum = 0, 0, 0
	g.errHist = [numErrorBuckets]int64{}
	g.divSum, g.divN = 0, 0
	g.dropped = 0
	g.lat = g.lat[:0]
	g.latN = 0
}

// RecordMirror notes rows mirrored through this generation with their
// mean positional divergence (meters) from the active's predictions.
func (g *GenStats) RecordMirror(rows int, meanDivergenceM float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mirrored += int64(rows)
	g.divSum += meanDivergenceM * float64(rows)
	g.divN += int64(rows)
}

// RecordScore notes one re-anchor score: the gap (meters) between this
// generation's prediction and the WiFi fix.
func (g *GenStats) RecordScore(errM float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.scores++
	g.scoreSum += errM
	g.errHist[errorBucket(errM)]++
}

// RecordPass notes one batched forward pass: per-row latency samples
// feed the p99 the promotion policy bounds.
func (g *GenStats) RecordPass(d time.Duration, rows int) {
	if rows <= 0 {
		return
	}
	perRowMS := d.Seconds() * 1e3 / float64(rows)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.lat) < passLatencyWindow {
		g.lat = append(g.lat, perRowMS)
	} else {
		g.lat[g.latN%passLatencyWindow] = perRowMS
	}
	g.latN++
}

// Drop counts a mirror submission that was shed (in-flight cap) or
// failed.
func (g *GenStats) Drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropped++
}

func errorBucket(m float64) int {
	for i, le := range lifecycleErrorBuckets {
		if m <= le {
			return i
		}
	}
	return len(lifecycleErrorBuckets)
}

// GenStatsSnapshot is a point-in-time copy of one generation's
// evaluation evidence.
type GenStatsSnapshot struct {
	Since          time.Time
	Mirrored       int64
	Scores         int64
	ErrorSumM      float64
	ErrorHist      [numErrorBuckets]int64
	DivergenceSumM float64
	DivergenceN    int64
	Dropped        int64
	P99PassMS      float64

	MeanErrorM      float64
	MeanDivergenceM float64
}

// Samples is the evidence count promotion windows are measured in.
func (s GenStatsSnapshot) Samples() int64 { return s.Mirrored + s.Scores }

// Snapshot copies the current counters and derives the means and p99.
func (g *GenStats) Snapshot() GenStatsSnapshot {
	g.mu.Lock()
	snap := GenStatsSnapshot{
		Since:          g.since,
		Mirrored:       g.mirrored,
		Scores:         g.scores,
		ErrorSumM:      g.scoreSum,
		ErrorHist:      g.errHist,
		DivergenceSumM: g.divSum,
		DivergenceN:    g.divN,
		Dropped:        g.dropped,
	}
	lat := append([]float64(nil), g.lat...)
	g.mu.Unlock()
	if snap.Scores > 0 {
		snap.MeanErrorM = snap.ErrorSumM / float64(snap.Scores)
	}
	if snap.DivergenceN > 0 {
		snap.MeanDivergenceM = snap.DivergenceSumM / float64(snap.DivergenceN)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		snap.P99PassMS = lat[int(0.99*float64(len(lat)-1))]
	}
	return snap
}

// distM is the planar distance between two points in meters.
func distM(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	return math.Sqrt(dx*dx + dy*dy)
}
