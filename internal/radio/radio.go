// Package radio simulates Wi-Fi received-signal-strength fingerprints, the
// input modality of the paper's first application. It substitutes for the
// proprietary UJIIndoorLoc / IPIN2016 surveys with a physically grounded
// model: log-distance path loss, wall and floor attenuation, static
// log-normal shadow fading (consistent per location, which is what makes
// fingerprinting possible at all), per-measurement noise, and heterogeneous
// device biases. Undetected access points report the UJIIndoorLoc sentinel
// value +100.
package radio

import (
	"fmt"
	"math"
	"math/rand"

	"noble/internal/floorplan"
	"noble/internal/geo"
	"noble/internal/mat"
)

// NotDetected is the RSSI sentinel for an access point that is out of
// range, matching the UJIIndoorLoc encoding (+100 dBm).
const NotDetected = 100.0

// WAP is one wireless access point: a position, the floor and building it
// is mounted in (building -1 for outdoor), and its reference transmit
// power.
type WAP struct {
	ID       int
	Pos      geo.Point
	Building int
	Floor    int
	TxPower  float64 // dBm at 1 m
}

// Config holds the propagation model parameters.
type Config struct {
	// PathLossExponent is the log-distance exponent n; ~3.0 indoors.
	PathLossExponent float64
	// WallAttenuation is the dB penalty when the receiver is in a
	// different building than the access point.
	WallAttenuation float64
	// FloorAttenuation is the dB penalty per floor of separation.
	FloorAttenuation float64
	// FloorHeight is the vertical distance per floor in meters.
	FloorHeight float64
	// ShadowSigma is the standard deviation (dB) of the static,
	// location-consistent shadow fading field.
	ShadowSigma float64
	// NoiseSigma is the standard deviation (dB) of independent
	// per-measurement noise.
	NoiseSigma float64
	// DetectionThreshold is the dBm floor below which a WAP is reported
	// as NotDetected.
	DetectionThreshold float64
	// DeviceCount and DeviceBiasSigma model heterogeneous phones: each
	// simulated device has a fixed dB offset drawn from N(0, bias²).
	DeviceCount     int
	DeviceBiasSigma float64
}

// DefaultConfig returns propagation parameters typical of indoor office
// deployments (exponent 3, 8 dB walls, 12 dB floors, 4 dB shadowing).
func DefaultConfig() Config {
	return Config{
		PathLossExponent:   3.0,
		WallAttenuation:    8,
		FloorAttenuation:   12,
		FloorHeight:        3.5,
		ShadowSigma:        4,
		NoiseSigma:         2,
		DetectionThreshold: -93,
		DeviceCount:        4,
		DeviceBiasSigma:    3,
	}
}

// Simulator produces RSSI fingerprints for positions on a plan.
type Simulator struct {
	Plan *floorplan.Plan
	WAPs []WAP
	Cfg  Config

	shadowSeed  int64
	deviceBias  []float64
	shadowCellM float64
}

// NewSimulator places count access points on the plan (spread across
// buildings and floors at accessible positions) and returns a simulator
// with the given propagation config. All placement randomness comes from
// seed.
func NewSimulator(plan *floorplan.Plan, cfg Config, count int, seed int64) *Simulator {
	if count <= 0 {
		panic(fmt.Sprintf("radio: WAP count %d must be positive", count))
	}
	rng := mat.NewRand(seed)
	sim := &Simulator{
		Plan:        plan,
		Cfg:         cfg,
		shadowSeed:  seed*2654435761 + 1,
		shadowCellM: 2.0,
	}
	bounds := plan.Bounds()
	for len(sim.WAPs) < count {
		p := geo.Point{
			X: bounds.Min.X + rng.Float64()*bounds.Width(),
			Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
		}
		b := plan.BuildingAt(p)
		if b == -1 && !plan.Accessible(p) {
			continue
		}
		floors := 1
		if b >= 0 {
			floors = plan.Buildings[b].Floors
		}
		sim.WAPs = append(sim.WAPs, WAP{
			ID:       len(sim.WAPs),
			Pos:      p,
			Building: b,
			Floor:    rng.Intn(floors),
			TxPower:  -28 - rng.Float64()*6,
		})
	}
	n := cfg.DeviceCount
	if n < 1 {
		n = 1
	}
	sim.deviceBias = make([]float64, n)
	for i := range sim.deviceBias {
		sim.deviceBias[i] = rng.NormFloat64() * cfg.DeviceBiasSigma
	}
	return sim
}

// NumWAPs returns the fingerprint dimensionality W.
func (s *Simulator) NumWAPs() int { return len(s.WAPs) }

// shadow returns the static shadow-fading value (dB) for a WAP at a
// location, deterministic in (wap, quantized position, floor). Consistency
// across repeated visits to the same spot is what gives fingerprints their
// discriminative texture.
func (s *Simulator) shadow(wapID int, p geo.Point, floor int) float64 {
	h := uint64(fnvOffset64)
	for _, v := range [...]int64{
		s.shadowSeed,
		int64(wapID),
		int64(math.Floor(p.X / s.shadowCellM)),
		int64(math.Floor(p.Y / s.shadowCellM)),
		int64(floor),
	} {
		h = fnv1a64Word(h, uint64(v))
	}
	return mat.SeededNorm(int64(h)) * s.Cfg.ShadowSigma
}

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64Word folds the eight little-endian bytes of v into the FNV-1a
// state h.
func fnv1a64Word(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Measure returns one RSSI fingerprint (length NumWAPs) for a receiver at
// planar position p on the given building/floor. rng drives the
// per-measurement noise and the random device pick; the underlying radio
// map (path loss + shadowing) is deterministic.
func (s *Simulator) Measure(p geo.Point, building, floor int, rng *rand.Rand) []float64 {
	bias := s.deviceBias[rng.Intn(len(s.deviceBias))]
	out := make([]float64, len(s.WAPs))
	for i := range s.WAPs {
		out[i] = s.measureOne(&s.WAPs[i], p, building, floor, bias, rng)
	}
	return out
}

func (s *Simulator) measureOne(w *WAP, p geo.Point, building, floor int, bias float64, rng *rand.Rand) float64 {
	dFloors := floor - w.Floor
	if building != w.Building {
		// Different buildings: treat vertical separation as unknown,
		// dominated by wall losses.
		dFloors = 0
	}
	dz := float64(dFloors) * s.Cfg.FloorHeight
	d := math.Hypot(geo.Dist(p, w.Pos), dz)
	if d < 1 {
		d = 1
	}
	rssi := w.TxPower - 10*s.Cfg.PathLossExponent*math.Log10(d)
	if building != w.Building {
		rssi -= s.Cfg.WallAttenuation
	}
	if dFloors != 0 {
		rssi -= s.Cfg.FloorAttenuation * math.Abs(float64(dFloors))
	}
	rssi += s.shadow(w.ID, p, floor)
	rssi += bias
	if rng != nil {
		rssi += rng.NormFloat64() * s.Cfg.NoiseSigma
	}
	if rssi < s.Cfg.DetectionThreshold {
		return NotDetected
	}
	return rssi
}

// RadioMap returns the noise-free expected fingerprint at a position —
// the "offline radio map" entry a classical fingerprinting system stores.
func (s *Simulator) RadioMap(p geo.Point, building, floor int) []float64 {
	out := make([]float64, len(s.WAPs))
	for i := range s.WAPs {
		out[i] = s.measureOne(&s.WAPs[i], p, building, floor, 0, nil)
	}
	return out
}

// Normalize maps a raw RSSI vector to [0,1] features for the network:
// NotDetected becomes 0 and detected powers map linearly from the
// detection threshold (→ small positive) up to -20 dBm (→ 1). The paper
// normalizes inputs the same way ("We normalize the input vector").
func Normalize(rssi []float64, threshold float64) []float64 {
	out := make([]float64, len(rssi))
	lo, hi := threshold, -20.0
	span := hi - lo
	for i, v := range rssi {
		switch {
		case v == NotDetected:
			out[i] = 0
		default:
			n := (v - lo) / span
			if n < 0 {
				n = 0
			}
			if n > 1 {
				n = 1
			}
			out[i] = n
		}
	}
	return out
}
