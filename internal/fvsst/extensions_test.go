package fvsst

// Tests for the paper's optional/extension features: two-point calibration
// (§4.3 footnote), best/worst-case latency bounds ([17]), per-CPU voltage
// tables under process variation (§5), the distributed daemon redesign
// (§9), and the closed-form f_ideal mode (§5/§9).

import (
	"testing"

	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestConfigValidatesLatencyBounds(t *testing.T) {
	cfg := noOverheadConfig()
	cfg.LatencyBoundHi = 1.3
	cfg.LatencyBoundLo = 0.9
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid bounds rejected: %v", err)
	}
	cfg.LatencyBoundLo = 0
	if cfg.Validate() == nil {
		t.Error("zero lo bound accepted")
	}
	cfg.LatencyBoundLo = 1.5
	if cfg.Validate() == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestVoltageTablesLengthChecked(t *testing.T) {
	m := quietMachine(t) // 4 CPUs
	cfg := noOverheadConfig()
	cfg.VoltageTables = []*power.Table{power.PaperTable1()} // wrong length
	if _, err := New(cfg, m, units.Watts(560)); err == nil {
		t.Error("mismatched voltage table count accepted")
	}
}

func TestProcessVariationVoltages(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(0, mix)

	scales := []float64{1.10, 1.0, 0.95, 1.0}
	tables, err := power.WithVoltageVariation(power.PaperTable1(), scales)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noOverheadConfig()
	cfg.VoltageTables = tables
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(0.3); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	// Step 3 reads each processor's own table, not the shared one.
	for cpu, a := range d.Assignments {
		want, err := tables[cpu].MinVoltage(a.Actual)
		if err != nil {
			t.Fatal(err)
		}
		if a.Voltage != want {
			t.Errorf("cpu %d at %v: voltage %v, want its own table's %v", cpu, a.Actual, a.Voltage, want)
		}
	}
	// CPUs 1 and 3 share scale 1.0 and (being hot-idle twins) frequency —
	// equal voltages; CPU 1's 1.0-scale voltage is below a 1.10-scale
	// voltage at the same frequency.
	a1, a3 := d.Assignments[1], d.Assignments[3]
	if a1.Actual == a3.Actual && a1.Voltage != a3.Voltage {
		t.Errorf("same scale+frequency, different voltage: %v vs %v", a1.Voltage, a3.Voltage)
	}
	base, err := power.PaperTable1().MinVoltage(d.Assignments[0].Actual)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Assignments[0].Voltage; got <= base {
		t.Errorf("weak-silicon CPU0 voltage %v not above nominal %v", got, base)
	}
}

func TestWithVoltageVariationValidation(t *testing.T) {
	if _, err := power.WithVoltageVariation(power.PaperTable1(), []float64{0.5}); err == nil {
		t.Error("extreme scale accepted")
	}
	tables, err := power.WithVoltageVariation(power.PaperTable1(), []float64{1.1})
	if err != nil {
		t.Fatal(err)
	}
	// Power scales as V²: 140 W × 1.21 at 1 GHz.
	p, err := tables[0].PowerAt(units.GHz(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.W(); got < 169.3 || got > 169.5 {
		t.Errorf("scaled power = %v, want 169.4W", got)
	}
}

func TestTwoPointCalibrationConverges(t *testing.T) {
	// With two-point calibration the scheduler still finds the saturation
	// frequency of the memory-bound workload; the mode exercises the
	// CalibrateTwoPoint path whenever consecutive windows ran at different
	// frequencies (which happens during the initial descent).
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	cfg := noOverheadConfig()
	cfg.UseTwoPointCalibration = true
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	got := d.Assignments[3].Actual
	if got > units.MHz(700) || got < units.MHz(600) {
		t.Errorf("two-point mode scheduled memory-bound CPU at %v, want ≈650MHz", got)
	}
}

func TestLatencyBoundsAreConservative(t *testing.T) {
	// Worst-case bounds treat the workload as less memory-bound than
	// nominal, so the chosen frequency can only be the same or higher.
	run := func(bounds bool) units.Frequency {
		m := quietMachine(t)
		mix, _ := workload.NewMix(memProgram("mem", 1e12))
		m.SetMix(3, mix)
		cfg := noOverheadConfig()
		if bounds {
			cfg.LatencyBoundLo = 0.85
			cfg.LatencyBoundHi = 1.3
		}
		s, err := New(cfg, m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(m, s)
		if err := drv.Run(1.0); err != nil {
			t.Fatal(err)
		}
		d, _ := s.LastDecision()
		return d.Assignments[3].Actual
	}
	nominal := run(false)
	conservative := run(true)
	if conservative < nominal {
		t.Errorf("bounded mode chose %v below nominal %v", conservative, nominal)
	}
	if conservative == nominal {
		t.Logf("bounds made no difference at this workload (nominal %v)", nominal)
	}
	// For the mcf-calibrated workload a 15% latency discount must lift the
	// choice off 650 MHz.
	if nominal <= units.MHz(700) && conservative <= nominal {
		t.Errorf("conservative mode %v did not exceed nominal %v", conservative, nominal)
	}
}

// TestDistributedOverheadSpreadsCost checks the §9 redesign: the same total
// daemon cost lands as a small per-CPU tax rather than a concentrated hit
// on CPU 0.
func TestDistributedOverheadSpreadsCost(t *testing.T) {
	run := func(distributed bool) (cpu0, cpu3 uint64) {
		m := quietMachine(t)
		for cpu := 0; cpu < 4; cpu++ {
			mix, _ := workload.NewMix(cpuProgram("cpu", 1e12))
			m.SetMix(cpu, mix)
		}
		cfg := noOverheadConfig()
		cfg.Overhead = Overhead{CollectPerCPU: 200e-6, SchedulePass: 2e-3, Distributed: distributed}
		s, err := New(cfg, m, units.Watts(560))
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(m, s)
		if err := drv.Run(1.0); err != nil {
			t.Fatal(err)
		}
		s0, _ := m.ReadCounters(0)
		s3, _ := m.ReadCounters(3)
		return s0.Instructions, s3.Instructions
	}
	c0, c3 := run(false)
	d0, d3 := run(true)
	// Concentrated: CPU 0 clearly slower than CPU 3.
	if float64(c0) > 0.97*float64(c3) {
		t.Errorf("concentrated mode: cpu0 %d not visibly slower than cpu3 %d", c0, c3)
	}
	// Distributed: both within a hair of each other.
	ratio := float64(d0) / float64(d3)
	if ratio < 0.995 || ratio > 1.005 {
		t.Errorf("distributed mode: cpu0/cpu3 = %v, want ≈1", ratio)
	}
	// And CPU 0 recovers most of what it lost.
	if d0 <= c0 {
		t.Errorf("distribution did not help cpu0: %d <= %d", d0, c0)
	}
}

func TestIdealFrequencyModeEndToEnd(t *testing.T) {
	m := quietMachine(t)
	mix, _ := workload.NewMix(memProgram("mem", 1e12))
	m.SetMix(3, mix)
	cfg := noOverheadConfig()
	cfg.UseIdealFrequency = true
	s, err := New(cfg, m, units.Watts(560))
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(m, s)
	if err := drv.Run(1.0); err != nil {
		t.Fatal(err)
	}
	d, _ := s.LastDecision()
	got := d.Assignments[3].Actual
	if got > units.MHz(700) || got < units.MHz(600) {
		t.Errorf("f_ideal mode scheduled memory-bound CPU at %v, want ≈650MHz", got)
	}
}
