package serve

import (
	"math/rand"
	"sync"
)

// rngPool holds the generators Station.Release and Feeder.Release hand
// back. Rand.Seed rewrites a math/rand generator's whole state (the
// source refills every register and Read's buffer is dropped), so a
// re-seeded pooled generator draws exactly the stream of
// rand.New(rand.NewSource(seed)) without allocating a fresh source.
var rngPool sync.Pool

// newRand returns a generator seeded with seed, re-seeding a pooled one
// when the pool holds one.
func newRand(seed int64) *rand.Rand {
	if r, ok := rngPool.Get().(*rand.Rand); ok {
		r.Seed(seed)
		return r
	}
	return rand.New(rand.NewSource(seed))
}

// releaseRand hands *r back to the pool once and clears it, so a use
// after release panics instead of drawing from another owner's stream.
func releaseRand(r **rand.Rand) {
	if *r != nil {
		rngPool.Put(*r)
		*r = nil
	}
}

// Release hands the station's generator back for reuse by a later
// NewStation or NewStream. The station must not serve afterwards; its
// scoreboard and account stay readable.
func (s *Station) Release() { releaseRand(&s.sizeRng) }

// Release hands every stream's generator back for reuse. The feeder and
// its streams must not deliver afterwards.
func (f *Feeder) Release() {
	for _, src := range f.srcs {
		releaseRand(&src.stream.rng)
	}
}
