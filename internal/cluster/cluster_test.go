package cluster

import (
	"errors"
	"strings"
	"testing"

	"simdram/internal/ctrl"
)

func TestMakePlanBalanced(t *testing.T) {
	p, err := MakePlan(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{{Channel: 0, Off: 0, Count: 4}, {Channel: 1, Off: 4, Count: 3}, {Channel: 2, Off: 7, Count: 3}}
	if len(p.Spans) != len(want) {
		t.Fatalf("spans = %v, want %v", p.Spans, want)
	}
	for i := range want {
		if p.Spans[i] != want[i] {
			t.Errorf("span %d = %v, want %v", i, p.Spans[i], want[i])
		}
	}
}

func TestMakePlanSmallN(t *testing.T) {
	// Fewer elements than channels: tail channels get no span at all.
	p, err := MakePlan(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{{Channel: 0, Off: 0, Count: 1}, {Channel: 1, Off: 1, Count: 1}}
	if len(p.Spans) != 2 || p.Spans[0] != want[0] || p.Spans[1] != want[1] {
		t.Fatalf("spans = %v, want %v", p.Spans, want)
	}
}

func TestMakePlanErrors(t *testing.T) {
	if _, err := MakePlan(0, 1); err == nil {
		t.Error("zero elements must be rejected")
	}
	if _, err := MakePlan(4, 0); err == nil {
		t.Error("zero channels must be rejected")
	}
}

func TestDispatchJoinsAndAnnotates(t *testing.T) {
	err := Dispatch([]int{0, 1, 2}, func(task, ch int) error {
		if ch == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "channel 1: boom") {
		t.Fatalf("error must be channel-annotated, got: %v", err)
	}
}

func TestMergeStats(t *testing.T) {
	per := []ctrl.BatchStats{
		{Instructions: 4, Commands: 40, BusyNs: 100, CriticalPathNs: 50, EnergyPJ: 7},
		{Instructions: 4, Commands: 40, BusyNs: 100, CriticalPathNs: 100, EnergyPJ: 7},
		{}, // idle channel
	}
	m := Merge(per)
	if m.Instructions != 8 || m.Commands != 80 {
		t.Errorf("counts must add: %+v", m)
	}
	if m.BusyNs != 200 || m.EnergyPJ != 14 {
		t.Errorf("busy time and energy must add: %+v", m)
	}
	if m.CriticalPathNs != 100 {
		t.Errorf("makespan must be the max critical path, got %f", m.CriticalPathNs)
	}
	wantUtil := []float64{0.5, 1, 0}
	for i, u := range m.ChannelUtilization {
		if u != wantUtil[i] {
			t.Errorf("utilization[%d] = %f, want %f", i, u, wantUtil[i])
		}
	}
	if m.UtilizationSkew() != 1 {
		t.Errorf("skew = %f, want 1 (one idle channel)", m.UtilizationSkew())
	}
	if m.Speedup() != 2 {
		t.Errorf("speedup = %f, want 2", m.Speedup())
	}
}
