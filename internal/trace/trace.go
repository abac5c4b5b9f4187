// Package trace records the physical DRAM command streams SIMDRAM
// executions produce — the artifact a memory-systems researcher feeds to
// an external DRAM simulator or inspects for protocol-level effects
// (activation patterns, RowHammer pressure, command mix).
package trace

import (
	"fmt"
	"io"
	"sync"

	"simdram/internal/dram"
)

// Event is one recorded command with its origin subarray.
type Event struct {
	Seq       int64
	Bank, Sub int
	Cmd       dram.Command
}

// Log accumulates events from any number of subarrays; safe for the
// simulator's parallel per-subarray execution.
type Log struct {
	mu     sync.Mutex
	events []Event
	seq    int64
	limit  int // 0 = unbounded
}

// NewLog builds a log keeping at most limit events (0 = unbounded).
func NewLog(limit int) *Log {
	return &Log{limit: limit}
}

// Attach subscribes the log to a subarray's command stream. The log
// composes with any hook already installed (via dram.AddCommandHook),
// so command logging coexists with other observers — obs counters,
// RowHammer monitors — on the same subarray.
func (l *Log) Attach(sa *dram.Subarray, bank, sub int) {
	sa.AddCommandHook(func(c dram.Command) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.seq++
		if l.limit > 0 && len(l.events) >= l.limit {
			return // keep counting, stop storing
		}
		l.events = append(l.events, Event{Seq: l.seq, Bank: bank, Sub: sub, Cmd: c})
	})
}

// AttachModule subscribes the log to every subarray of a module.
func (l *Log) AttachModule(mod *dram.Module) {
	for b := 0; b < mod.NumBanks(); b++ {
		for s := 0; s < mod.SubarraysPerBank(); s++ {
			l.Attach(mod.Subarray(b, s), b, s)
		}
	}
}

// Events returns a snapshot of the stored events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Total returns the number of commands observed (including any beyond
// the storage limit).
func (l *Log) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// WriteText renders the stored events, one command per line:
//
//	seq bank sub KIND rows…
func (l *Log) WriteText(w io.Writer) error {
	for _, e := range l.Events() {
		var err error
		c := e.Cmd
		switch c.Kind {
		case dram.CmdAAP:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d AAP  src=%d dst=%v\n", e.Seq, e.Bank, e.Sub, c.Src, c.Dsts[:c.NDst])
		case dram.CmdAP:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d AP   tra=%v\n", e.Seq, e.Bank, e.Sub, c.T)
		case dram.CmdMajCopy:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d MAJ  tra=%v dst=%v\n", e.Seq, e.Bank, e.Sub, c.T, c.Dsts[:c.NDst])
		case dram.CmdHostRead:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d RD   row=%d\n", e.Seq, e.Bank, e.Sub, c.Src)
		case dram.CmdHostWrite:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d WR   row=%d\n", e.Seq, e.Bank, e.Sub, c.Src)
		default:
			_, err = fmt.Fprintf(w, "%8d b%02d s%02d %v\n", e.Seq, e.Bank, e.Sub, c.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ActivationHistogram counts, for the stored events, how many times each
// physical row was activated (AAP activates source and destinations; AP
// and MajCopy activate the TRA rows, MajCopy also its destinations).
func (l *Log) ActivationHistogram() map[int]int64 {
	hist := map[int]int64{}
	for _, e := range l.Events() {
		c := e.Cmd
		switch c.Kind {
		case dram.CmdAAP:
			hist[c.Src]++
			for _, d := range c.Dsts[:c.NDst] {
				hist[d]++
			}
		case dram.CmdAP:
			for _, r := range c.T {
				hist[r]++
			}
		case dram.CmdMajCopy:
			for _, r := range c.T {
				hist[r]++
			}
			for _, d := range c.Dsts[:c.NDst] {
				hist[d]++
			}
		case dram.CmdHostRead, dram.CmdHostWrite:
			hist[c.Src]++
		}
	}
	return hist
}
