// Package ops defines the SIMDRAM operation library: the 16 operations
// the paper demonstrates (§5), each as a gate-level circuit generator
// parameterized by element width, plus a golden (CPU oracle) model used
// for verification and as the CPU baseline's functional path.
//
// Operand conventions: inputs are little-endian buses, one bus per source
// operand, declared operand-major (all bits of operand 0, then operand 1,
// …). Arithmetic is unsigned two's-complement except abs and relu, which
// interpret the element as signed. Relational operations produce a 1-bit
// predicate; multiplication produces the full product (capped at 64 bits);
// division is unsigned restoring division with the hardware convention
// that x/0 = all-ones.
package ops

import (
	"fmt"
	"math/bits"
	"sync"

	"simdram/internal/logic"
)

// Code identifies an operation.
type Code uint8

// The 16 SIMDRAM operations (paper §5), plus Not as a helper.
const (
	OpAndRed             Code = iota // N-input bitwise AND reduction
	OpOrRed                          // N-input bitwise OR reduction
	OpXorRed                         // N-input bitwise XOR reduction
	OpEqual                          // a == b → 1-bit predicate
	OpGreater                        // a > b (unsigned) → 1-bit predicate
	OpGreaterEqual                   // a >= b (unsigned) → 1-bit predicate
	OpMax                            // unsigned max(a, b)
	OpMin                            // unsigned min(a, b)
	OpAdd                            // a + b (mod 2^W)
	OpSub                            // a - b (mod 2^W)
	OpMul                            // a × b, full product (≤ 64 bits)
	OpDiv                            // a / b unsigned; a/0 = all-ones
	OpAbs                            // |a| signed two's complement
	OpBitCount                       // population count of a
	OpReLU                           // signed a < 0 ? 0 : a
	OpIfElse                         // sel ? a : b (sel = bit 0 of operand 2)
	OpNot                            // ~a (helper, not one of the paper's 16)
	OpShiftLeft                      // a << 1 with zero fill (paper §2: pure row copies)
	OpShiftRight                     // a >> 1 with zero fill
	OpGreaterSigned                  // two's-complement a > b (extension)
	OpGreaterEqualSigned             // two's-complement a >= b (extension)
	OpMaxSigned                      // two's-complement max (extension)
	OpMinSigned                      // two's-complement min (extension)
	OpMod                            // a mod b unsigned; a mod 0 = a (extension)
	numCodes
)

// NumOps is the number of operations in the paper's demonstration set.
const NumOps = 16

// Def describes one operation.
type Def struct {
	Code   Code
	Name   string
	Arity  int // source operand count; -1 means N-ary (reductions)
	Signed bool

	// DstWidth returns the destination element width for source width w.
	DstWidth func(w int) int
	// SrcWidths returns the per-operand element widths for source width
	// w; nil means every operand uses w. (if_else's selector is 1 bit.)
	SrcWidths func(w int) []int
	// Build returns the gate-level circuit for width w; n is the operand
	// count for N-ary operations (ignored otherwise).
	Build func(w, n int) (*logic.Circuit, error)
	// Golden computes the reference result for one element.
	Golden func(args []uint64, w int) uint64
}

// SourceWidths returns the concrete per-operand widths for source width w
// and operand count n.
func (d Def) SourceWidths(w, n int) []int {
	if d.SrcWidths != nil {
		return d.SrcWidths(w)
	}
	arity := d.EffArity(n)
	ws := make([]int, arity)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

// EffArity returns the concrete operand count given n for N-ary ops.
func (d Def) EffArity(n int) int {
	if d.Arity >= 0 {
		return d.Arity
	}
	return n
}

// catalog holds every registered definition. Entries are immutable
// once registered and never removed, so a pointer to one (Intern) is a
// stable reference to its operation.
var (
	catalogMu sync.RWMutex
	catalog   []*Def
)

func register(d Def) {
	catalog = append(catalog, &d)
}

// customBase is the code space for user-registered operations; built-in
// codes stay below it.
const customBase Code = 128

// RegisterCustom adds a user-defined operation to the catalog and
// returns its assigned code. This is the paper's extensibility story
// (§3, §5): a new operation is a circuit plus a golden model — the
// framework synthesizes its μProgram and the control unit executes it
// with no hardware changes. Name must be unique; Build, Golden and
// DstWidth must be set; the Code field is assigned by the registry.
func RegisterCustom(d Def) (Code, error) {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if d.Name == "" || d.Build == nil || d.Golden == nil || d.DstWidth == nil {
		return 0, fmt.Errorf("ops: custom operation needs Name, Build, Golden and DstWidth")
	}
	if d.Arity == 0 {
		return 0, fmt.Errorf("ops: custom operation %q has arity 0", d.Name)
	}
	for _, existing := range catalog {
		if existing.Name == d.Name {
			return 0, fmt.Errorf("ops: operation %q already registered", d.Name)
		}
	}
	code := customBase
	for _, existing := range catalog {
		if existing.Code >= code {
			code = existing.Code + 1
		}
	}
	if code < customBase {
		code = customBase
	}
	d.Code = code
	catalog = append(catalog, &d)
	return code, nil
}

// Catalog returns all operation definitions in a stable order. The first
// NumOps entries are the paper's demonstration set.
func Catalog() []Def {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	out := make([]Def, len(catalog))
	for i, d := range catalog {
		out[i] = *d
	}
	return out
}

// PaperSet returns exactly the paper's 16 operations.
func PaperSet() []Def {
	return Catalog()[:NumOps]
}

// ByName finds an operation by name.
func ByName(name string) (Def, error) {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	for _, d := range catalog {
		if d.Name == name {
			return *d, nil
		}
	}
	return Def{}, fmt.Errorf("ops: unknown operation %q", name)
}

// ByCode finds an operation by code.
func ByCode(code Code) (Def, error) {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	for _, d := range catalog {
		if d.Code == code {
			return *d, nil
		}
	}
	return Def{}, fmt.Errorf("ops: unknown opcode %d", code)
}

// Intern returns a shared, read-only reference to d: the catalog's own
// entry when d is the registered operation of its code, otherwise a
// copy of d (a definition built outside the catalog).
func Intern(d Def) *Def {
	catalogMu.RLock()
	for _, c := range catalog {
		if c.Code == d.Code && c.Name == d.Name {
			catalogMu.RUnlock()
			return c
		}
	}
	catalogMu.RUnlock()
	own := d
	return &own
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// signBit reports whether the signed interpretation of v at width w is
// negative.
func signBit(v uint64, w int) bool { return (v>>uint(w-1))&1 == 1 }

func sameWidth(w int) int { return w }
func oneBit(int) int      { return 1 }

func mulDstWidth(w int) int {
	if 2*w > 64 {
		return 64
	}
	return 2 * w
}

func bitcountDstWidth(w int) int {
	return bits.Len(uint(w)) // ceil(log2(w+1))
}

func init() {
	register(Def{
		Code: OpAndRed, Name: "and_red", Arity: -1,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildReduction(w, n, logicAnd) },
		Golden: func(args []uint64, w int) uint64 {
			acc := widthMask(w)
			for _, a := range args {
				acc &= a
			}
			return acc & widthMask(w)
		},
	})
	register(Def{
		Code: OpOrRed, Name: "or_red", Arity: -1,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildReduction(w, n, logicOr) },
		Golden: func(args []uint64, w int) uint64 {
			var acc uint64
			for _, a := range args {
				acc |= a
			}
			return acc & widthMask(w)
		},
	})
	register(Def{
		Code: OpXorRed, Name: "xor_red", Arity: -1,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildReduction(w, n, logicXor) },
		Golden: func(args []uint64, w int) uint64 {
			var acc uint64
			for _, a := range args {
				acc ^= a
			}
			return acc & widthMask(w)
		},
	})
	register(Def{
		Code: OpEqual, Name: "equal", Arity: 2,
		DstWidth: oneBit,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildEqual(w) },
		Golden: func(args []uint64, w int) uint64 {
			return b2u(args[0]&widthMask(w) == args[1]&widthMask(w))
		},
	})
	register(Def{
		Code: OpGreater, Name: "greater", Arity: 2,
		DstWidth: oneBit,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildCompare(w, true) },
		Golden: func(args []uint64, w int) uint64 {
			return b2u(args[0]&widthMask(w) > args[1]&widthMask(w))
		},
	})
	register(Def{
		Code: OpGreaterEqual, Name: "greater_equal", Arity: 2,
		DstWidth: oneBit,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildCompare(w, false) },
		Golden: func(args []uint64, w int) uint64 {
			return b2u(args[0]&widthMask(w) >= args[1]&widthMask(w))
		},
	})
	register(Def{
		Code: OpMax, Name: "max", Arity: 2,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildMinMax(w, true) },
		Golden: func(args []uint64, w int) uint64 {
			a, b := args[0]&widthMask(w), args[1]&widthMask(w)
			if a >= b {
				return a
			}
			return b
		},
	})
	register(Def{
		Code: OpMin, Name: "min", Arity: 2,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildMinMax(w, false) },
		Golden: func(args []uint64, w int) uint64 {
			a, b := args[0]&widthMask(w), args[1]&widthMask(w)
			if a <= b {
				return a
			}
			return b
		},
	})
	register(Def{
		Code: OpAdd, Name: "addition", Arity: 2,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildAdd(w) },
		Golden: func(args []uint64, w int) uint64 {
			return (args[0] + args[1]) & widthMask(w)
		},
	})
	register(Def{
		Code: OpSub, Name: "subtraction", Arity: 2,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildSub(w) },
		Golden: func(args []uint64, w int) uint64 {
			return (args[0] - args[1]) & widthMask(w)
		},
	})
	register(Def{
		Code: OpMul, Name: "multiplication", Arity: 2,
		DstWidth: mulDstWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildMul(w) },
		Golden: func(args []uint64, w int) uint64 {
			return (args[0] & widthMask(w)) * (args[1] & widthMask(w)) & widthMask(mulDstWidth(w))
		},
	})
	register(Def{
		Code: OpDiv, Name: "division", Arity: 2,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildDiv(w) },
		Golden: func(args []uint64, w int) uint64 {
			a, b := args[0]&widthMask(w), args[1]&widthMask(w)
			if b == 0 {
				return widthMask(w)
			}
			return a / b
		},
	})
	register(Def{
		Code: OpAbs, Name: "abs", Arity: 1, Signed: true,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildAbs(w) },
		Golden: func(args []uint64, w int) uint64 {
			a := args[0] & widthMask(w)
			if signBit(a, w) {
				return (^a + 1) & widthMask(w)
			}
			return a
		},
	})
	register(Def{
		Code: OpBitCount, Name: "bitcount", Arity: 1,
		DstWidth: bitcountDstWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildBitCount(w) },
		Golden: func(args []uint64, w int) uint64 {
			return uint64(bits.OnesCount64(args[0] & widthMask(w)))
		},
	})
	register(Def{
		Code: OpReLU, Name: "relu", Arity: 1, Signed: true,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildReLU(w) },
		Golden: func(args []uint64, w int) uint64 {
			a := args[0] & widthMask(w)
			if signBit(a, w) {
				return 0
			}
			return a
		},
	})
	register(Def{
		Code: OpIfElse, Name: "if_else", Arity: 3,
		DstWidth:  sameWidth,
		SrcWidths: func(w int) []int { return []int{w, w, 1} },
		Build:     func(w, n int) (*logic.Circuit, error) { return buildIfElse(w) },
		Golden: func(args []uint64, w int) uint64 {
			if args[2]&1 == 1 {
				return args[0] & widthMask(w)
			}
			return args[1] & widthMask(w)
		},
	})
	register(Def{
		Code: OpNot, Name: "not", Arity: 1,
		DstWidth: sameWidth,
		Build:    func(w, n int) (*logic.Circuit, error) { return buildNot(w) },
		Golden: func(args []uint64, w int) uint64 {
			return ^args[0] & widthMask(w)
		},
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
