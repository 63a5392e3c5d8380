package fvsst_test

import (
	"fmt"

	"repro/internal/fvsst"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// ExamplePass_Observe shows Step 1 of the scheduling algorithm on the
// paper's two limiting cases: CPU-bound work keeps the maximum frequency,
// memory-bound work saturates far below it.
func ExamplePass_Observe() {
	tab := power.PaperTable1()
	p := fvsst.NewPass(fvsst.Config{Table: tab, Epsilon: 0.05})

	cpuBound := perfmodel.Decomposition{InvAlpha: 1 / 1.4} // no memory component
	memBound := perfmodel.Decomposition{InvAlpha: 1 / 1.1, StallSecPerInstr: 9e-9}

	p.Begin(2)
	for i, d := range []perfmodel.Decomposition{cpuBound, memBound} {
		if err := p.Observe(i, d); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Println("cpu-bound:", tab.FrequencyAtIndex(p.Desired()[0]))
	fmt.Println("mem-bound:", tab.FrequencyAtIndex(p.Desired()[1]))
	// Output:
	// cpu-bound: 1GHz
	// mem-bound: 650MHz
}

// ExamplePass_Fit shows Step 2 on the §5 frequency set: under a 294 W
// budget the memory-bound processors absorb the reduction and the
// CPU-bound one keeps its clock.
func ExamplePass_Fit() {
	tab := power.Section5Table()
	p := fvsst.NewPass(fvsst.Config{Table: tab, Epsilon: 0.05})
	cpuBound := perfmodel.Decomposition{InvAlpha: 1 / 1.4, StallSecPerInstr: 0.1e-9}
	memBound := perfmodel.Decomposition{InvAlpha: 1 / 1.1, StallSecPerInstr: 9e-9}
	decs := []perfmodel.Decomposition{cpuBound, memBound, memBound, memBound}

	// Step 1 per processor, then the budget fit.
	p.Begin(len(decs))
	for i, d := range decs {
		if err := p.Observe(i, d); err != nil {
			fmt.Println(err)
			return
		}
	}
	met := p.Fit(units.Watts(294))
	actual := tab.FrequenciesAtIndices(p.Actual())
	fmt.Println("assignment:", actual[0], actual[1], actual[2], actual[3])
	fmt.Println("power:", p.TablePower(), "met:", met)
	// Output:
	// assignment: 1GHz 600MHz 600MHz 600MHz
	// power: 284W met: true
}
