package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// perfDemoConfig mirrors the Wi-Fi survey of the benchmark-scale demo
// bundle (serve's DemoPerf spec), the survey the shipped demo-wifi
// bundles regenerate on every load.
func perfDemoConfig() WiFiConfig {
	cfg := DefaultUJIConfig()
	cfg.NumWAPs = 160
	cfg.RefSpacing = 4.5
	cfg.SamplesPerRef = 2
	cfg.TestSamplesPerRef = 1
	return cfg
}

// surveyDigest hashes the exact bits of a survey: every sample's RSSI,
// Features, Pos, Building and Floor in split order, then every WAP.
func surveyDigest(ds *WiFi) string {
	h := sha256.New()
	f := func(v float64) { putWord(h, math.Float64bits(v)) }
	i := func(v int) { putWord(h, uint64(int64(v))) }
	for _, split := range [][]WiFiSample{ds.Train, ds.Val, ds.Test} {
		i(len(split))
		for _, s := range split {
			i(len(s.RSSI))
			for _, v := range s.RSSI {
				f(v)
			}
			i(len(s.Features))
			for _, v := range s.Features {
				f(v)
			}
			f(s.Pos.X)
			f(s.Pos.Y)
			i(s.Building)
			i(s.Floor)
		}
	}
	i(len(ds.Sim.WAPs))
	for _, w := range ds.Sim.WAPs {
		i(w.ID)
		f(w.Pos.X)
		f(w.Pos.Y)
		i(w.Building)
		i(w.Floor)
		f(w.TxPower)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putWord(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// TestSurveyGoldenDigest pins the synthetic surveys bit for bit across
// versions. Bundles store the survey spec, not the survey, and rebuild
// their grids and int8-gate split from the regenerated samples, so any
// drift in the radio field or the sampling order silently changes every
// shipped bundle. The digests were recorded from the original
// per-measurement rand.Source shadow field; a mismatch here is a
// behaviour change, never a reason to re-record.
func TestSurveyGoldenDigest(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *WiFi
		want string
	}{
		{"SmallUJI", func() *WiFi { return SynthUJI(SmallUJIConfig()) },
			"017fdb4def97b62478873c5ae96823d09bae1ddb4df7fc92d24191061c466f52"},
		{"SmallIPIN", func() *WiFi { return SynthIPIN(SmallIPINConfig()) },
			"2660647be9896c57ac01c9bffb6dda83e5843aa0a914943a071016146de9bc4c"},
		{"PerfDemoUJI", func() *WiFi { return SynthUJI(perfDemoConfig()) },
			"360e0d886d9066f0d2614bdad3f4f0eca99da605f225103555fc495f34116d97"},
	}
	for _, c := range cases {
		if got := surveyDigest(c.gen()); got != c.want {
			t.Errorf("%s survey digest = %s, want %s", c.name, got, c.want)
		}
	}
}
