package dram

import "fmt"

// Stats accumulates command counts and energy for a subarray or a whole
// module. Counts are functional ground truth; latency is derived from
// counts by the control unit, which knows how commands overlap across
// banks.
type Stats struct {
	AAPs       int64
	APs        int64
	MajCopies  int64 // Ambit-style fused TRA-then-copy commands
	Activates  int64
	Precharges int64
	HostReads  int64
	HostWrites int64
	EnergyPJ   float64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.AAPs += other.AAPs
	s.APs += other.APs
	s.MajCopies += other.MajCopies
	s.Activates += other.Activates
	s.Precharges += other.Precharges
	s.HostReads += other.HostReads
	s.HostWrites += other.HostWrites
	s.EnergyPJ += other.EnergyPJ
}

// Sub returns s minus other (for interval measurements).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		AAPs:       s.AAPs - other.AAPs,
		APs:        s.APs - other.APs,
		MajCopies:  s.MajCopies - other.MajCopies,
		Activates:  s.Activates - other.Activates,
		Precharges: s.Precharges - other.Precharges,
		HostReads:  s.HostReads - other.HostReads,
		HostWrites: s.HostWrites - other.HostWrites,
		EnergyPJ:   s.EnergyPJ - other.EnergyPJ,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("stats{aap=%d ap=%d majcopy=%d act=%d pre=%d rd=%d wr=%d energy=%.1fnJ}",
		s.AAPs, s.APs, s.MajCopies, s.Activates, s.Precharges, s.HostReads, s.HostWrites, s.EnergyPJ/1000)
}

// Module is a DRAM device: Banks × SubarraysPerBank subarrays.
type Module struct {
	cfg   Config
	banks [][]*Subarray
}

// NewModule allocates a module per cfg.
func NewModule(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Module{cfg: cfg}
	m.banks = make([][]*Subarray, cfg.Banks)
	for b := range m.banks {
		m.banks[b] = make([]*Subarray, cfg.SubarraysPerBank)
		for s := range m.banks[b] {
			m.banks[b][s] = NewSubarray(&m.cfg)
		}
	}
	return m, nil
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Subarray returns the subarray at (bank, index).
func (m *Module) Subarray(bank, idx int) *Subarray {
	return m.banks[bank][idx]
}

// NumBanks returns the bank count.
func (m *Module) NumBanks() int { return len(m.banks) }

// SubarraysPerBank returns subarrays per bank.
func (m *Module) SubarraysPerBank() int { return len(m.banks[0]) }

// Stats sums statistics across all subarrays.
func (m *Module) Stats() Stats {
	var total Stats
	for _, bank := range m.banks {
		for _, sa := range bank {
			total.Add(sa.Stats)
		}
	}
	return total
}
