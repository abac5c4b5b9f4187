package isa

import (
	"reflect"
	"testing"

	"simdram/internal/ops"
)

func add(dst, a, b uint16) Instruction {
	return Instruction{Op: FromOp(ops.OpAdd), Dst: dst, Src: [3]uint16{a, b}, Size: 8, Width: 8}
}

func TestProgramValidate(t *testing.T) {
	if err := (Program{}).Validate(); err == nil {
		t.Error("empty program must be rejected")
	}
	good := Program{add(3, 1, 2)}
	if err := good.Validate(); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
	bad := Program{add(3, 1, 2), {Op: OpInvalid}}
	if err := bad.Validate(); err == nil {
		t.Error("program with invalid instruction must be rejected")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	p := Program{
		{Op: OpTrspInit, Src: [3]uint16{1}, Size: 8, Width: 8},
		add(3, 1, 2),
		add(4, 3, 1),
	}
	for i, in := range p {
		back, err := Decode(in.Encode())
		if err != nil {
			t.Fatalf("instruction %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Errorf("instruction %d round trip: got %v, want %v", i, back, in)
		}
	}
}

func TestReadsWrites(t *testing.T) {
	in := add(3, 1, 2)
	if got := in.Reads(); !reflect.DeepEqual(got, []uint16{1, 2}) {
		t.Errorf("Reads = %v, want [1 2]", got)
	}
	if got := in.Writes(); !reflect.DeepEqual(got, []uint16{3}) {
		t.Errorf("Writes = %v, want [3]", got)
	}
	trsp := Instruction{Op: OpTrspInit, Src: [3]uint16{7}, Size: 8, Width: 8}
	if got := trsp.Reads(); !reflect.DeepEqual(got, []uint16{7}) {
		t.Errorf("trsp_init Reads = %v, want [7]", got)
	}
	if got := trsp.Writes(); got != nil {
		t.Errorf("trsp_init Writes = %v, want nil", got)
	}
}

func TestDepsHazards(t *testing.T) {
	cases := []struct {
		name string
		p    Program
		want [][]int
	}{
		{
			name: "independent",
			p:    Program{add(3, 1, 2), add(6, 4, 5)},
			want: [][]int{nil, nil},
		},
		{
			name: "raw-chain",
			p:    Program{add(3, 1, 2), add(4, 3, 1), add(5, 4, 6)},
			want: [][]int{nil, {0}, {1}},
		},
		{
			name: "waw",
			p:    Program{add(3, 1, 2), add(3, 4, 5)},
			want: [][]int{nil, {0}},
		},
		{
			name: "war",
			p:    Program{add(3, 1, 2), add(1, 4, 5)},
			want: [][]int{nil, {0}},
		},
		{
			// A write clears the reader list: instruction 2 depends on the
			// new writer (RAW), not on the stale reader set.
			name: "write-clears-readers",
			p:    Program{add(3, 1, 2), add(1, 4, 5), add(6, 1, 2)},
			want: [][]int{nil, {0}, {1}},
		},
		{
			// trsp_init reads its object, so a later write to it carries a
			// WAR edge.
			name: "trsp-war",
			p: Program{
				{Op: OpTrspInit, Src: [3]uint16{3}, Size: 8, Width: 8},
				add(3, 1, 2),
			},
			want: [][]int{nil, {0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.p.Deps()
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Deps = %v, want %v", got, tc.want)
			}
		})
	}
}
