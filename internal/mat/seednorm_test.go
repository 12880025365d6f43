package mat

import (
	"math"
	"testing"
)

// seedEdges are the seeds at the edges of rngSource.Seed's reduction:
// zero (replaced by 89482311), the modulus 2³¹−1 and its multiples (all
// reduce to zero), their neighbours, the int64 extremes and negatives
// that wrap.
var seedEdges = []int64{
	0, 1, -1, 89482311, -89482311,
	lehmerMod, -lehmerMod, 2 * lehmerMod, -2 * lehmerMod, 7 * lehmerMod,
	lehmerMod - 1, lehmerMod + 1, -lehmerMod + 1, -lehmerMod - 1,
	math.MaxInt64 / lehmerMod * lehmerMod, math.MinInt64 / lehmerMod * lehmerMod,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	math.MaxInt32, math.MinInt32, math.MaxUint32, -math.MaxUint32,
}

// rejectSeeds are seeds whose first ziggurat draw is rejected, so
// SeededNorm must answer through the full generator.
var rejectSeeds = []int64{78, 85, -60}

func assertSameNorm(t *testing.T, seed int64) {
	t.Helper()
	got, want := SeededNorm(seed), NewRand(seed).NormFloat64()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SeededNorm(%d) = %v, want NewRand(%d).NormFloat64() = %v", seed, got, seed, want)
	}
}

// TestSeededNormMatchesStdlib holds SeededNorm to the stdlib bit for bit
// over the edge seeds and a spread of 120k seeds covering small, large
// and negative values, and requires both the first-try path and the
// rejection fallback to be exercised.
func TestSeededNormMatchesStdlib(t *testing.T) {
	for _, seed := range append(seedEdges, rejectSeeds...) {
		assertSameNorm(t, seed)
	}
	rng := NewRand(11)
	var fast, fallback int
	for n := 0; n < 120000; n++ {
		var seed int64
		switch n % 3 {
		case 0:
			seed = int64(n)
		case 1:
			seed = rng.Int63()
		default:
			seed = -rng.Int63()
		}
		assertSameNorm(t, seed)
		if _, ok := seededNormFast(seed); ok {
			fast++
		} else {
			fallback++
		}
	}
	if fast == 0 || fallback == 0 {
		t.Fatalf("branch coverage: %d first-try, %d fallback seeds; want both > 0", fast, fallback)
	}
	for _, seed := range rejectSeeds {
		if _, ok := seededNormFast(seed); ok {
			t.Fatalf("seed %d no longer takes the rejection fallback", seed)
		}
	}
}

// FuzzSeededNorm differentially tests SeededNorm against the stdlib.
// Its seed corpus (testdata/fuzz/FuzzSeededNorm) holds the reduction
// edges and known rejection seeds.
func FuzzSeededNorm(f *testing.F) {
	f.Fuzz(assertSameNorm)
}

var normSink float64

func BenchmarkSeededNorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		normSink = SeededNorm(int64(uint64(i) * 0x9E3779B97F4A7C15))
	}
}

// BenchmarkNewRandNorm is the cost SeededNorm replaces: a fresh source
// per draw.
func BenchmarkNewRandNorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		normSink = NewRand(int64(uint64(i) * 0x9E3779B97F4A7C15)).NormFloat64()
	}
}
