package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scramble draws from r in mixed kinds and sizes, k varying the mix;
// the odd-sized Read leaves bytes buffered outside the source.
func scramble(r *rand.Rand, k int) {
	for i := 0; i <= k%5; i++ {
		r.Int63()
		r.NormFloat64()
	}
	r.Read(make([]byte, 3+k%7))
	r.ExpFloat64()
	r.Perm(4 + k%3)
}

// TestReseededRandMatchesFresh: a generator that has drawn arbitrarily,
// Read included, and is then re-seeded, directly or through the pool,
// gives the same first 10 000 values of each kind as
// rand.New(rand.NewSource(seed)).
func TestReseededRandMatchesFresh(t *testing.T) {
	kinds := []struct {
		name string
		draw func(*rand.Rand) uint64
	}{
		{"Int63", func(r *rand.Rand) uint64 { return uint64(r.Int63()) }},
		{"Float64", func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) }},
		{"ExpFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.ExpFloat64()) }},
		{"NormFloat64", func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) }},
		{"Read", func(r *rand.Rand) uint64 {
			var b [5]byte
			r.Read(b[:])
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 | uint64(b[4])<<32
		}},
	}
	same := func(t *testing.T, how string, got *rand.Rand, seed int64, draw func(*rand.Rand) uint64) {
		t.Helper()
		fresh := rand.New(rand.NewSource(seed))
		for i := 0; i < 10_000; i++ {
			if a, b := draw(got), draw(fresh); a != b {
				t.Fatalf("%s, seed %d: draw %d is %#x, fresh %#x", how, seed, i, a, b)
			}
		}
	}
	for k, seed := range []int64{0, 1, -7, 1 << 40, math.MaxInt64} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/seed=%d", kind.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed + 1))
				scramble(r, k)
				r.Seed(seed)
				same(t, "Seed", r, seed, kind.draw)
				scramble(r, k+1)
				releaseRand(&r)
				if r != nil {
					t.Fatal("releaseRand left the generator in place")
				}
				same(t, "pool", newRand(seed), seed, kind.draw)
			})
		}
	}
}

// TestReleaseDropsGenerators: Release clears the station's and the
// streams' generators, twice is harmless, and streams built afterwards,
// from pooled generators, replay the arrivals of the released ones.
func TestReleaseDropsGenerators(t *testing.T) {
	st, err := NewStation(quietMachine(t, 2), Config{Classes: []Class{webClass()}, Clients: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseArrivalSpec("gamma:40,cv=1.5")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(f *Feeder) []float64 {
		var out []float64
		for c := 0; c < 3; c++ {
			stm, err := spec.NewStream(int64(c) + 11)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				out = append(out, stm.Pop())
			}
			f.Add(0, c, stm)
		}
		return out
	}
	var f Feeder
	want := arrivals(&f)
	st.Release()
	f.Release()
	st.Release()
	f.Release()
	if st.sizeRng != nil {
		t.Fatal("station kept its generator")
	}
	for _, src := range f.srcs {
		if src.stream.rng != nil {
			t.Fatal("stream kept its generator")
		}
	}
	var g Feeder
	got := arrivals(&g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d: %v after release, %v before", i, got[i], want[i])
		}
	}
}
