package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, p := range []Program{Gzip(0.1), Gap(0.1), Mcf(0.1), Health(0.1)} {
		var buf bytes.Buffer
		if err := SaveProgram(&buf, p); err != nil {
			t.Fatalf("%s: save: %v", p.Name, err)
		}
		got, err := LoadProgram(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", p.Name, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", p.Name, got, p)
		}
	}
}

func TestSaveRejectsInvalidProgram(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveProgram(&buf, Program{}); err == nil {
		t.Error("invalid program saved")
	}
	if buf.Len() != 0 {
		t.Error("partial output written for invalid program")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"unknown field": `{"name":"x","bogus":1,"phases":[{"name":"p","alpha":1,"instructions":1}]}`,
		"no phases":     `{"name":"x","phases":[]}`,
		"bad alpha":     `{"name":"x","phases":[{"name":"p","alpha":-1,"instructions":1}]}`,
		"bad loopfrom":  `{"name":"x","loop_from":9,"phases":[{"name":"p","alpha":1,"instructions":1}]}`,
		"bad rate":      `{"name":"x","phases":[{"name":"p","alpha":1,"instructions":1,"mem_per_instr":2}]}`,
	}
	for name, in := range cases {
		if _, err := LoadProgram(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSavedFormIsStable(t *testing.T) {
	// The on-disk field names are a compatibility contract.
	var buf bytes.Buffer
	p := Program{Name: "x", Phases: []Phase{{
		Name: "p", Alpha: 1.5, Instructions: 10, NonMemStallCyclesPerInstr: 0.1,
	}}}
	if err := SaveProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{`"name"`, `"alpha"`, `"instructions"`, `"non_mem_stall_cycles_per_instr"`, `"l2_per_instr"`} {
		if !strings.Contains(out, key) {
			t.Errorf("serialised form missing %s:\n%s", key, out)
		}
	}
}
