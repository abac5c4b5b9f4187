package trace

import (
	"bytes"
	"strings"
	"testing"

	"simdram/internal/dram"
)

func TestLogRecordsCommands(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	l := NewLog(0)
	l.Attach(sa, 1, 2)

	sa.AAP(0, 1)
	sa.AAP(2, sa.TRow(0), sa.TRow(1), sa.TRow(2))
	sa.AP(sa.TRow(0), sa.TRow(1), sa.TRow(2))
	sa.MajCopy(sa.TRow(0), sa.TRow(1), sa.TRow(2), 5)
	sa.WriteRow(7, make([]uint64, cfg.WordsPerRow()))
	sa.ReadRowInto(7, make([]uint64, cfg.WordsPerRow()))

	events := l.Events()
	if len(events) != 6 {
		t.Fatalf("recorded %d events, want 6", len(events))
	}
	wantKinds := []dram.CommandKind{dram.CmdAAP, dram.CmdAAP, dram.CmdAP, dram.CmdMajCopy, dram.CmdHostWrite, dram.CmdHostRead}
	for i, e := range events {
		if e.Cmd.Kind != wantKinds[i] {
			t.Errorf("event %d kind %v, want %v", i, e.Cmd.Kind, wantKinds[i])
		}
		if e.Bank != 1 || e.Sub != 2 {
			t.Errorf("event %d origin (%d,%d), want (1,2)", i, e.Bank, e.Sub)
		}
	}
	if events[1].Cmd.NDst != 3 {
		t.Errorf("multi-destination AAP recorded %d dsts", events[1].Cmd.NDst)
	}

	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"AAP", "AP", "MAJ", "WR", "RD", "b01 s02"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace text missing %q:\n%s", want, text)
		}
	}
}

func TestLogLimitAndTotal(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	l := NewLog(3)
	l.Attach(sa, 0, 0)
	for i := 0; i < 10; i++ {
		sa.AAP(0, 1)
	}
	if got := len(l.Events()); got != 3 {
		t.Errorf("stored %d events, want 3 (limit)", got)
	}
	if l.Total() != 10 {
		t.Errorf("total %d, want 10", l.Total())
	}
	l.Reset()
	if l.Total() != 0 || len(l.Events()) != 0 {
		t.Error("reset left residue")
	}
}

func TestActivationHistogram(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	l := NewLog(0)
	l.Attach(sa, 0, 0)
	sa.AAP(4, sa.TRow(0))
	sa.AAP(5, sa.TRow(1))
	sa.AAP(6, sa.TRow(2))
	sa.AP(sa.TRow(0), sa.TRow(1), sa.TRow(2))
	hist := l.ActivationHistogram()
	if hist[4] != 1 || hist[5] != 1 || hist[6] != 1 {
		t.Errorf("source activations wrong: %v", hist)
	}
	for i := 0; i < 3; i++ {
		if hist[sa.TRow(i)] != 2 { // one as AAP dst, one in the TRA
			t.Errorf("T%d activations = %d, want 2", i, hist[sa.TRow(i)])
		}
	}
}

func TestAttachComposesWithExistingHook(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)

	// An observer installed before the log (e.g. an obs counter).
	var before int
	sa.AddCommandHook(func(dram.Command) { before++ })

	l := NewLog(0)
	l.Attach(sa, 0, 0)

	// And one installed after: all three must see every command.
	var after int
	sa.AddCommandHook(func(dram.Command) { after++ })

	sa.AAP(0, 1)
	sa.AP(sa.TRow(0), sa.TRow(1), sa.TRow(2))

	if before != 2 {
		t.Errorf("pre-existing hook saw %d commands, want 2", before)
	}
	if after != 2 {
		t.Errorf("later hook saw %d commands, want 2", after)
	}
	if got := l.Total(); got != 2 {
		t.Errorf("log recorded %d commands, want 2", got)
	}
}
