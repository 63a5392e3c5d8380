package scenario

import "testing"

// TestCodecDifferentialFaultFree: JSON and binary payloads over the same
// fault-free scenarios must render byte-identical traces — the binary
// codec carries exact float bit patterns and changes nothing about the
// decision arithmetic.
func TestCodecDifferentialFaultFree(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		spec := Generate(seed).FaultFree()
		d, err := runCodecDifferential(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Equivalent {
			t.Fatalf("seed %d diverged: %+v", seed, d.Divergences[0])
		}
		if d.Base.Hash != d.Variant.Hash {
			t.Fatalf("seed %d: equivalent but hashes differ", seed)
		}
		if len(d.Variant.Violations) != 0 {
			t.Fatalf("seed %d: invariant violations on binary run", seed)
		}
	}
}

// TestCodecDifferentialFaulty: under faults the codecs still see the same
// fault draws (faultnet decides drops before encoding, keyed only on send
// order), so the comparison masks no fault window: every round of a
// faulted scenario must match byte for byte, inside the windows too.
func TestCodecDifferentialFaulty(t *testing.T) {
	tested := 0
	for seed := int64(1); seed <= 30 && tested < 4; seed++ {
		spec := Generate(seed)
		if len(spec.Partitions) == 0 && len(spec.Policies) == 0 {
			continue
		}
		tested++
		d, err := runCodecDifferential(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Equivalent {
			t.Errorf("seed %d: divergence: %+v", seed, d.Divergences[0])
		}
		if d.FaultRounds != 0 || d.InWindowDiffs != 0 {
			t.Errorf("seed %d: %d rounds masked, %d differed under the mask; the codec differential masks none",
				seed, d.FaultRounds, d.InWindowDiffs)
		}
		if d.Base.Hash != d.Variant.Hash {
			t.Errorf("seed %d: hashes differ", seed)
		}
	}
	if tested < 4 {
		t.Fatalf("only %d faulty seeds in 1..30", tested)
	}
}

// TestTierDifferential: the flat coordinator and the 2-level relay tree
// must render byte-identical traces on fault-free seeds — the
// hierarchical division is exact and the relay ledger reassembles in
// global node order.
func TestTierDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d, err := runTierDifferential(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !d.Equivalent {
			t.Fatalf("seed %d diverged: %+v", seed, d.Divergences[0])
		}
		if d.Base.Hash != d.Variant.Hash {
			t.Fatalf("seed %d: equivalent but hashes differ", seed)
		}
		if d.Variant.MaxPassLatencyS <= 0 {
			t.Fatalf("seed %d: relay run reported no pass latency", seed)
		}
		if len(d.Variant.Violations) != 0 {
			t.Fatalf("seed %d: invariant violations on relay run", seed)
		}
	}
}

// TestRelayNetFaultyBudgetSafety: the relay driver under leaf faults must
// keep every round's ledger within budget (conservative charging at both
// tiers) and produce no invariant violations — under partitions, which
// fail fast at dial, and under message-fault policies, where a dropped
// leaf message costs the relay a timeout and a retry while the root
// waits. Seeds 12, 13 and 31 are message-fault specs whose relay
// outlasted a root sharing its RPC deadline and so lost a round's grant.
func TestRelayNetFaultyBudgetSafety(t *testing.T) {
	seeds := []int64{12, 13, 31}
	for _, seed := range seeds {
		if len(Generate(seed).Policies) == 0 {
			t.Fatalf("seed %d carries no message-fault policy", seed)
		}
	}
	partitioned := 0
	for seed := int64(1); seed <= 30 && partitioned < 3; seed++ {
		if spec := Generate(seed); len(spec.Partitions) > 0 && len(spec.Nodes) >= 2 {
			partitioned++
			seeds = append(seeds, seed)
		}
	}
	if partitioned < 3 {
		t.Fatalf("only %d partitioned multi-node seeds in 1..30", partitioned)
	}
	for _, seed := range seeds {
		spec := Generate(seed).WithoutUPS().WithoutServing()
		res, err := RunRelayNet(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %+v", seed, res.Violations[0])
		}
		for _, rt := range res.Trace {
			if rt.ChargedW > rt.BudgetW {
				t.Fatalf("seed %d round %d: charged %v over budget %v", seed, rt.Round, rt.ChargedW, rt.BudgetW)
			}
		}
	}
}
