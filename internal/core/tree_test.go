package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func ranksUpTo(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestFlatTreeShape(t *testing.T) {
	// Figure 3(a): P4 sends to every other participant directly.
	tr := NewTree(FlatTree, 3, []int{0, 1, 2, 3, 4, 5}, 1, 1)
	if len(tr.Children(3)) != 5 {
		t.Fatalf("root has %d children, want 5", len(tr.Children(3)))
	}
	if tr.Depth() != 1 {
		t.Fatalf("flat tree depth %d", tr.Depth())
	}
	if err := validateTree(tr); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTreeShape(t *testing.T) {
	// Figure 3(b): root P4 over {P1..P6} sends to the first rank of each
	// half of the sorted non-root list [1,2,3,5,6] -> halves [1,2,3],[5,6];
	// children of root are 1 and 5; 1 forwards to 2,3; 5 forwards to 6.
	tr := NewTree(BinaryTree, 3, []int{0, 1, 2, 3, 4, 5}, 1, 1)
	// Ranks are 0-based here: root 3, others [0,1,2,4,5] -> halves
	// [0,1,2] and [4,5]: children {0,4}; 0 -> {1,2}; 4 -> {5}.
	rootKids := tr.Children(3)
	if len(rootKids) != 2 || rootKids[0] != 0 || rootKids[1] != 4 {
		t.Fatalf("root children %v, want [0 4]", rootKids)
	}
	k0 := tr.Children(0)
	if len(k0) != 2 || k0[0] != 1 || k0[1] != 2 {
		t.Fatalf("children of 0: %v, want [1 2]", k0)
	}
	k4 := tr.Children(4)
	if len(k4) != 1 || k4[0] != 5 {
		t.Fatalf("children of 4: %v, want [5]", k4)
	}
	if err := validateTree(tr); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryTreeRootSendsAtMostTwo(t *testing.T) {
	for n := 1; n <= 40; n++ {
		tr := NewTree(BinaryTree, 0, ranksUpTo(n), 1, 1)
		if len(tr.Children(0)) > 2 {
			t.Fatalf("n=%d: root degree %d", n, len(tr.Children(0)))
		}
		for _, r := range tr.Participants() {
			if len(tr.Children(r)) > 2 {
				t.Fatalf("n=%d: rank %d degree %d", n, r, len(tr.Children(r)))
			}
		}
	}
}

func TestBinaryTreeLogDepth(t *testing.T) {
	// §III: messages along the critical path drop from p to log p.
	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		tr := NewTree(BinaryTree, 0, ranksUpTo(n), 1, 1)
		maxDepth := 0
		for d := n; d > 1; d /= 2 {
			maxDepth++
		}
		if tr.Depth() > maxDepth+1 {
			t.Errorf("n=%d: depth %d exceeds log bound %d", n, tr.Depth(), maxDepth+1)
		}
	}
}

func TestShiftedTreeDeterministic(t *testing.T) {
	a := NewTree(ShiftedBinaryTree, 2, ranksUpTo(20), 7, 99)
	b := NewTree(ShiftedBinaryTree, 2, ranksUpTo(20), 7, 99)
	for _, r := range a.Participants() {
		ka, kb := a.Children(r), b.Children(r)
		if len(ka) != len(kb) {
			t.Fatalf("non-deterministic at rank %d", r)
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("non-deterministic at rank %d", r)
			}
		}
	}
}

func TestShiftedTreeVariesWithOpKey(t *testing.T) {
	// Different collectives must pick different internal nodes (the whole
	// point of the heuristic). Compare root children across op keys.
	diff := 0
	base := NewTree(ShiftedBinaryTree, 0, ranksUpTo(30), 7, 0)
	for op := uint64(1); op < 20; op++ {
		tr := NewTree(ShiftedBinaryTree, 0, ranksUpTo(30), 7, op)
		if len(tr.Children(0)) != len(base.Children(0)) {
			diff++
			continue
		}
		for i, c := range tr.Children(0) {
			if base.Children(0)[i] != c {
				diff++
				break
			}
		}
	}
	if diff < 10 {
		t.Fatalf("only %d/19 op keys changed the tree; shift not effective", diff)
	}
}

func TestAllSchemesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, scheme := range AllSchemes() {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(60)
			ranks := rng.Perm(200)[:n]
			root := ranks[rng.Intn(n)]
			tr := NewTree(scheme, root, ranks, rng.Uint64(), rng.Uint64())
			if err := validateTree(tr); err != nil {
				t.Fatalf("%v n=%d: %v", scheme, n, err)
			}
			if tr.Size() != n {
				t.Fatalf("%v: size %d want %d", scheme, tr.Size(), n)
			}
		}
	}
}

func TestTreeDeduplicatesRanks(t *testing.T) {
	tr := NewTree(BinaryTree, 1, []int{1, 2, 2, 3, 1, 3}, 1, 1)
	if tr.Size() != 3 {
		t.Fatalf("size %d, want 3 after dedup", tr.Size())
	}
	if err := validateTree(tr); err != nil {
		t.Fatal(err)
	}
}

func TestSingletonTree(t *testing.T) {
	tr := NewTree(ShiftedBinaryTree, 5, []int{5}, 1, 1)
	if tr.Depth() != 0 || len(tr.Children(5)) != 0 {
		t.Fatal("singleton tree must have no edges")
	}
	if tr.Parent(5) != -1 {
		t.Fatal("root parent must be -1")
	}
}

func TestRootNotInRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTree(FlatTree, 9, []int{1, 2, 3}, 1, 1)
}

func TestParentOfOutsiderPanics(t *testing.T) {
	tr := NewTree(FlatTree, 1, []int{1, 2}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Parent(99)
}

func TestHasAndParticipants(t *testing.T) {
	tr := NewTree(BinaryTree, 4, []int{2, 4, 6, 8}, 1, 1)
	for _, r := range []int{2, 4, 6, 8} {
		if tr.Pos(r) < 0 {
			t.Fatalf("rank %d should be in tree", r)
		}
	}
	if tr.Pos(3) >= 0 {
		t.Fatal("rank 3 should not be in tree")
	}
	p := tr.Participants()
	for i := 1; i < len(p); i++ {
		if p[i-1] >= p[i] {
			t.Fatal("participants not sorted")
		}
	}
}

// Property: every scheme reaches every participant exactly once and
// parent/child pointers agree, for random participant sets.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(80)
		ranks := r.Perm(500)[:n]
		root := ranks[r.Intn(n)]
		for _, scheme := range AllSchemes() {
			tr := NewTree(scheme, root, ranks, r.Uint64(), r.Uint64())
			if validateTree(tr) != nil {
				return false
			}
			// Parent chain from every node terminates at the root.
			for _, v := range tr.Participants() {
				steps := 0
				for u := v; u != root; u = tr.Parent(u) {
					steps++
					if steps > n {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// internalNodeCounts returns, per rank, how often it appears as an internal
// (forwarding) node across many collectives with the same participant set.
func internalNodeCounts(scheme Scheme, n, trials int) map[int]int {
	counts := map[int]int{}
	for op := 0; op < trials; op++ {
		tr := NewTree(scheme, 0, ranksUpTo(n), 12345, uint64(op))
		for _, r := range tr.Participants() {
			if r != tr.Root && len(tr.Children(r)) > 0 {
				counts[r]++
			}
		}
	}
	return counts
}

func TestShiftSpreadsInternalNodes(t *testing.T) {
	// §III: with the plain binary tree the same low ranks are always
	// internal nodes; the shift spreads the role around. Measure the
	// count spread (max-min) of internal-node appearances.
	n, trials := 32, 200
	spread := func(counts map[int]int) int {
		min, max := trials+1, 0
		for r := 1; r < n; r++ { // exclude the root
			c := counts[r]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min
	}
	plain := spread(internalNodeCounts(BinaryTree, n, trials))
	shifted := spread(internalNodeCounts(ShiftedBinaryTree, n, trials))
	if plain != trials {
		// Plain binary tree picks the identical internal nodes every time.
		t.Fatalf("plain binary spread %d, want %d (always same internals)", plain, trials)
	}
	if shifted > trials/2 {
		t.Fatalf("shifted spread %d not materially better than plain %d", shifted, plain)
	}
}

func TestSchemeStrings(t *testing.T) {
	if FlatTree.String() != "Flat-Tree" ||
		BinaryTree.String() != "Binary-Tree" ||
		ShiftedBinaryTree.String() != "Shifted Binary-Tree" {
		t.Fatal("scheme names must match the paper")
	}
}

func BenchmarkBuildShiftedTree1024(b *testing.B) {
	ranks := ranksUpTo(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTree(ShiftedBinaryTree, 0, ranks, 1, uint64(i))
	}
}

// Parent returns the parent of rank (-1 for the root). Panics for
// non-participants: asking for the parent of an outsider is a plan bug.
func (t *Tree) Parent(rank int) int {
	i := t.Pos(rank)
	if i < 0 {
		panic(fmt.Sprintf("core: rank %d not in tree rooted at %d", rank, t.Root))
	}
	return t.parentAt(i)
}
