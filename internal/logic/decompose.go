package logic

import "fmt"

// DecomposeAmbit rewrites a circuit into 2-input AND/OR plus NOT gates —
// the building blocks Ambit natively supports (AND/OR via triple-row
// activation with a control row, NOT via dual-contact cells). The result
// is the in-DRAM baseline SIMDRAM compares against: the same function
// without MAJ-native synthesis.
func DecomposeAmbit(c *Circuit) (*Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("logic: decompose: %w", err)
	}
	d := New()
	memo := make([]int, len(c.Nodes))
	for i, n := range c.Nodes {
		switch n.Kind {
		case KindInput:
			memo[i] = d.Input(n.Name)
		case KindConst:
			memo[i] = d.Const(n.Value)
		case KindNot:
			memo[i] = d.Not(memo[n.Fanins[0]])
		case KindAnd:
			memo[i] = foldBinary(d, d.And, n.Fanins, memo)
		case KindOr:
			memo[i] = foldBinary(d, d.Or, n.Fanins, memo)
		case KindXor:
			acc := memo[n.Fanins[0]]
			for _, f := range n.Fanins[1:] {
				b := memo[f]
				// a XOR b = OR(AND(a,!b), AND(!a,b))
				acc = d.Or(d.And(acc, d.Not(b)), d.And(d.Not(acc), b))
			}
			memo[i] = acc
		case KindMaj:
			a, b, e := memo[n.Fanins[0]], memo[n.Fanins[1]], memo[n.Fanins[2]]
			// MAJ(a,b,e) = OR(AND(a,b), AND(e, OR(a,b)))
			memo[i] = d.Or(d.And(a, b), d.And(e, d.Or(a, b)))
		case KindMux:
			s, tr, f := memo[n.Fanins[0]], memo[n.Fanins[1]], memo[n.Fanins[2]]
			memo[i] = d.Or(d.And(s, tr), d.And(d.Not(s), f))
		default:
			return nil, fmt.Errorf("logic: decompose: unknown kind %v", n.Kind)
		}
	}
	for i, o := range c.Outputs {
		name := ""
		if i < len(c.OutputNames) {
			name = c.OutputNames[i]
		}
		d.Output(memo[o], name)
	}
	return d, nil
}

func foldBinary(d *Circuit, op func(...int) int, fanins []int, memo []int) int {
	acc := memo[fanins[0]]
	for _, f := range fanins[1:] {
		acc = op(acc, memo[f])
	}
	return acc
}
