package power_test

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/units"
)

// ExampleTable_MaxFrequencyUnder shows the §4.4 budget-to-frequency
// conversion on the paper's Table 1: the highest setting whose peak power
// fits the limit.
func ExampleTable_MaxFrequencyUnder() {
	tab := power.PaperTable1()
	for _, limit := range []float64{140, 75, 35} {
		f, _ := tab.MaxFrequencyUnder(units.Watts(limit))
		fmt.Printf("%3.0fW -> %v\n", limit, f)
	}
	// Output:
	// 140W -> 1GHz
	//  75W -> 750MHz
	//  35W -> 500MHz
}

// ExampleMotivatingSystem shows the §2 power arithmetic: the surviving
// 480 W supply leaves 294 W for the four processors.
func ExampleMotivatingSystem() {
	sys := power.MotivatingSystem()
	fmt.Println("full system:", sys.Base+units.Watts(4*140))
	budget, ok := sys.CPUBudgetFor(units.Watts(480))
	fmt.Println("CPU budget on one supply:", budget, ok)
	// Output:
	// full system: 746W
	// CPU budget on one supply: 294W true
}
