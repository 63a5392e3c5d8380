package perfmodel

import (
	"repro/internal/units"
)

// PredGrid is a reusable per-pass scratch holding, for every CPU and
// every frequency of the operating-point set, the predicted IPC and the
// predicted performance loss versus the set maximum. The scheduling pass
// fills each busy CPU's row exactly once (Fill) and Step-1's ε-search,
// Step-2's greedy demotions and the decision attribution all read from it
// — before the grid each of those recomputed IPC(f)/PerfLoss per use.
//
// Ownership rule (see docs/engine.md): the grid belongs to one fvsst.Pass
// and is valid for the duration of one scheduling pass; Reset begins a
// pass and invalidates every row. The values are bit-identical to calling
// Decomposition.IPCAt / PerfLoss directly — the grid changes where the
// numbers are computed, never what they are.
type PredGrid struct {
	freqs units.FrequencySet
	nCPU  int
	ipc   []float64 // nCPU × len(freqs), row-major
	loss  []float64
	valid []bool
	heap  []DemotionKey // Step-2 scratch, see DemotionHeap
}

// DemotionKey is one entry of Step 2's demotion heap: two words whose
// order as one 128-bit number, Hi first, is the order in which
// fvsst.FitToBudgetGrid takes steps. The packing lives there; to the grid
// the entries are opaque.
type DemotionKey struct{ Hi, Lo uint64 }

// DemotionHeap returns the grid's reusable backing for Step 2's heap:
// length 0, capacity at least the pass's processor count. The grid only
// owns the memory, so a scheduler that keeps its grid across passes
// allocates the heap once.
func (g *PredGrid) DemotionHeap() []DemotionKey {
	if cap(g.heap) < g.nCPU {
		g.heap = make([]DemotionKey, 0, g.nCPU)
	}
	return g.heap[:0]
}

// Reset prepares the grid for one scheduling pass over nCPU processors and
// the given frequency set, reusing previous allocations when the shape is
// unchanged. Every row starts invalid.
func (g *PredGrid) Reset(nCPU int, set units.FrequencySet) {
	g.freqs = set
	g.nCPU = nCPU
	need := nCPU * len(set)
	if cap(g.ipc) < need {
		g.ipc = make([]float64, need)
		g.loss = make([]float64, need)
	}
	g.ipc = g.ipc[:need]
	g.loss = g.loss[:need]
	if cap(g.valid) < nCPU {
		g.valid = make([]bool, nCPU)
	}
	g.valid = g.valid[:nCPU]
	for i := range g.valid {
		g.valid[i] = false
	}
}

// Fill evaluates the decomposition's frequency sweep into cpu's row and
// marks it valid: IPC(f) for every set frequency, and PerfLoss versus the
// set maximum.
func (g *PredGrid) Fill(cpu int, d Decomposition) {
	g.valid[cpu] = true
	row := cpu * len(g.freqs)
	fMax := g.freqs[len(g.freqs)-1]
	pMax := d.PerfAt(fMax)
	for i, f := range g.freqs {
		ipc := d.IPCAt(f)
		g.ipc[row+i] = ipc
		if pMax == 0 {
			g.loss[row+i] = 0
			continue
		}
		g.loss[row+i] = (pMax - ipc*f.Hz()) / pMax
	}
}

// Valid reports whether cpu's row was filled this pass (false for idle or
// unobserved processors).
func (g *PredGrid) Valid(cpu int) bool { return g.valid[cpu] }

// NumFreqs returns the frequency count per row.
func (g *PredGrid) NumFreqs() int { return len(g.freqs) }

// Freq returns the fi-th set frequency (ascending).
func (g *PredGrid) Freq(fi int) units.Frequency { return g.freqs[fi] }

// IPC returns the predicted IPC of cpu at the fi-th set frequency.
func (g *PredGrid) IPC(cpu, fi int) float64 { return g.ipc[cpu*len(g.freqs)+fi] }

// Loss returns cpu's predicted performance loss at the fi-th set frequency
// versus the set maximum.
func (g *PredGrid) Loss(cpu, fi int) float64 { return g.loss[cpu*len(g.freqs)+fi] }
