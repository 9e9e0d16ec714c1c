package core

import "fmt"

// validateTree checks the tree invariants: every participant is reachable
// from the root exactly once and parent/children are mutually consistent.
func validateTree(t *Tree) error {
	root := t.Pos(t.Root)
	if root < 0 {
		return fmt.Errorf("core: root %d not a participant", t.Root)
	}
	seen := make([]bool, len(t.parts))
	stack := []int{root}
	reached := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			return fmt.Errorf("core: rank %d reached twice", t.parts[i])
		}
		seen[i] = true
		reached++
		for _, c := range t.childrenAt(i) {
			j := t.Pos(c)
			if j < 0 || int(t.up[j]) != i {
				return fmt.Errorf("core: parent/children inconsistent at %d -> %d", t.parts[i], c)
			}
			stack = append(stack, j)
		}
	}
	if reached != len(t.parts) {
		return fmt.Errorf("core: reached %d ranks, want %d", reached, len(t.parts))
	}
	return nil
}

// expectedBytes is the total the plan moves between distinct ranks for one
// operation kind, counted from the trees' sizes rather than their edges:
// every tree edge carries one payload; point ops count unless source and
// destination coincide.
func expectedBytes(p *Plan, kind OpKind) int64 {
	var total int64
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			if op.Kind == kind {
				total += int64(op.Tree.Size()-1) * op.Bytes
			}
		}, func(op *PointOp) {
			if op.Kind == kind && op.Src != op.Dst {
				total += op.Bytes
			}
		})
	}
	return total
}
