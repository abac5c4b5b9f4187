package trace

import (
	"bytes"
	"strings"
	"testing"

	"simdram/internal/dram"
	"simdram/internal/testoracle"
)

func TestLogRecordsCommands(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	l := NewLog(0)
	l.Attach(sa, 1, 2)

	testoracle.AAP(sa, 0, 1)
	testoracle.AAP(sa, 2, tRow(cfg, 0), tRow(cfg, 1), tRow(cfg, 2))
	testoracle.AP(sa, tRow(cfg, 0), tRow(cfg, 1), tRow(cfg, 2))
	testoracle.MajCopy(sa, tRow(cfg, 0), tRow(cfg, 1), tRow(cfg, 2), 5)
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
		testoracle.AAP(sa, 0, 1)
	}
	if got := len(l.Events()); got != 3 {
		t.Errorf("stored %d events, want 3 (limit)", got)
	}
	if l.Total() != 10 {
		t.Errorf("total %d, want 10", l.Total())
	}
}

func TestActivationHistogram(t *testing.T) {
	cfg := dram.TestConfig()
	sa := dram.NewSubarray(&cfg)
	l := NewLog(0)
	l.Attach(sa, 0, 0)
	testoracle.AAP(sa, 4, tRow(cfg, 0))
	testoracle.AAP(sa, 5, tRow(cfg, 1))
	testoracle.AAP(sa, 6, tRow(cfg, 2))
	testoracle.AP(sa, tRow(cfg, 0), tRow(cfg, 1), tRow(cfg, 2))
	hist := l.ActivationHistogram()
	if hist[4] != 1 || hist[5] != 1 || hist[6] != 1 {
		t.Errorf("source activations wrong: %v", hist)
	}
	for i := 0; i < 3; i++ {
		if hist[tRow(cfg, i)] != 2 { // one as AAP dst, one in the TRA
			t.Errorf("T%d activations = %d, want 2", i, hist[tRow(cfg, i)])
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

	testoracle.AAP(sa, 0, 1)
	testoracle.AP(sa, tRow(cfg, 0), tRow(cfg, 1), tRow(cfg, 2))

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

// tRow returns the physical row of T row i.
func tRow(cfg dram.Config, i int) int {
	row, _ := cfg.RowMap().TRow(i)
	return int(row)
}
