package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/memhier"
)

// FuzzLoadProgram checks the profile loader never panics and never accepts
// a profile that fails validation — arbitrary bytes either error out or
// yield a valid Program that survives a save/load round trip.
func FuzzLoadProgram(f *testing.F) {
	// Seed with a real profile and mutations of it.
	var buf bytes.Buffer
	if err := SaveProgram(&buf, Mcf(0.01)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"name":"x","phases":[{"name":"p","alpha":1,"instructions":1}]}`)
	f.Add(`{"name":"x","phases":[]}`)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`{"name":"x","loops":-1,"loop_from":0,"phases":[{"name":"p","alpha":8,"instructions":18446744073709551615}]}`)

	f.Fuzz(func(t *testing.T, s string) {
		p, err := LoadProgram(strings.NewReader(s))
		if err != nil {
			return
		}
		if vErr := p.Validate(); vErr != nil {
			t.Fatalf("loader accepted invalid program: %v", vErr)
		}
		var out bytes.Buffer
		if err := SaveProgram(&out, p); err != nil {
			t.Fatalf("accepted program does not save: %v", err)
		}
		if _, err := LoadProgram(&out); err != nil {
			t.Fatalf("saved program does not reload: %v", err)
		}
	})
}

// costProgram draws a small valid program from rng: one to six phases of
// random α, rates, length and non-memory stall, any LoopFrom, and Loops
// from −1 (forever) to 3.
func costProgram(rng *rand.Rand) Program {
	phases := make([]Phase, 1+rng.Intn(6))
	for i := range phases {
		phases[i] = Phase{
			Name:  fmt.Sprintf("p%d", i),
			Alpha: 8 * (1 - rng.Float64()),
			Rates: memhier.AccessRates{
				L2PerInstr:  rng.Float64() * 0.2,
				L3PerInstr:  rng.Float64() * 0.05,
				MemPerInstr: rng.Float64() * 0.01,
			},
			Instructions:              1 + uint64(rng.Intn(40)),
			NonMemStallCyclesPerInstr: rng.Float64() * 2,
		}
	}
	return Program{Name: "cost", Phases: phases, LoopFrom: rng.Intn(len(phases)), Loops: rng.Intn(5) - 1}
}

// FuzzCursorCost holds the phase cost a cursor caches on phase entry to
// the phase it is in: after every Advance, AdvanceWithinPhase, Reset and
// Rebind, core + stall·s·f must be Current().TrueCyclesPerInstr on the
// p630 at f and s, bit for bit. The seed picks the programs; each op byte
// is a kind (low two bits) and an instruction count (the rest). The seed
// corpus is under testdata/fuzz/FuzzCursorCost.
func FuzzCursorCost(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, fHz, scale float64) {
		if math.IsNaN(fHz) || math.IsInf(fHz, 0) || math.IsNaN(scale) || math.IsInf(scale, 0) {
			t.Skip("non-finite frequency or latency scale")
		}
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCursor(costProgram(rng))
		if err != nil {
			t.Fatal(err)
		}
		check := func(op int) {
			core, stall := c.PhaseCost()
			got := core + stall*scale*fHz
			want := c.Current().TrueCyclesPerInstr(memhier.P630(), fHz, scale)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d, phase %q: cached cost gives %v cycles, TrueCyclesPerInstr %v", op, c.Current().Name, got, want)
			}
		}
		check(-1)
		for i, b := range ops {
			n := uint64(b >> 2)
			switch b % 4 {
			case 0:
				c.Advance(n)
			case 1:
				c.AdvanceWithinPhase(n)
			case 2:
				c.Reset()
			case 3:
				c.Rebind(costProgram(rng))
			}
			check(i)
		}
	})
}
