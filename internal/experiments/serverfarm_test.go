package experiments

import (
	"strings"
	"testing"
)

func TestServerFarmDemandTracking(t *testing.T) {
	rep, err := ServerFarm(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted == 0 {
		t.Fatal("no jobs completed")
	}
	// fvsst must save a large share of power on a ~25%-utilised node.
	saving := 1 - rep.MeanPowerFVSSTW/rep.MeanPowerUnmanagedW
	if saving < 0.35 {
		t.Errorf("power saving %.0f%%, want ≥ 35%%", saving*100)
	}
	// Power follows the diurnal demand curve: peak half-periods draw
	// clearly more than troughs.
	if rep.PeakPowerW <= rep.TroughPowerW+30 {
		t.Errorf("no demand tracking: peak %.0fW vs trough %.0fW",
			rep.PeakPowerW, rep.TroughPowerW)
	}
	// The latency cost of parking idle processors stays bounded: requests
	// arriving at a parked CPU run one window at low frequency before the
	// scheduler ramps up.
	if rep.P95LatencyPenalty > 2.0 {
		t.Errorf("p95 latency penalty %.2fx too high", rep.P95LatencyPenalty)
	}
	if rep.P95LatencyPenalty < 1.0 {
		t.Errorf("managed run impossibly faster: %.2fx", rep.P95LatencyPenalty)
	}
	if !strings.Contains(rep.Render(), "diurnal") {
		t.Error("render incomplete")
	}
}
